package sim

// WindowStats describes one coordinator barrier: the window the shards
// are about to run, plus the cumulative engine counters at that instant.
// Counters are cumulative rather than per-window deltas on purpose — a
// bounded recorder that decimates its rows (obs.WindowRecorder) keeps the
// stream self-consistent, and consumers diff adjacent kept rows.
//
// For a fixed shard count the stream is a deterministic function of the
// model, like every other virtual-time output. Across shard counts it
// legitimately differs — windows are an engine artifact, not a model
// observable — which is why it is carried outside the bit-identity
// surfaces (core.Result JSON).
type WindowStats struct {
	Window    int64 // 1-based barrier ordinal
	GVT       Time  // minimum next-event time across shards; the window starts here
	MaxNow    Time  // latest shard clock at the barrier
	WindowEnd Time  // latest finite window end granted; 0 if none is finite
	Runnable  int   // shards with work inside their window

	// Cumulative engine counters.
	Executed     uint64
	MailInjected int64
}

// WindowObserver receives one WindowStats per coordinator barrier. It is
// called on the coordinator goroutine between windows (never concurrently
// with shard execution), so it may read engine state but must be cheap —
// it sits on the barrier's critical path.
type WindowObserver func(WindowStats)

// SetWindowObserver installs fn as the barrier observer. A nil observer
// (the default) costs one predictable branch per barrier.
func (ss *ShardSet) SetWindowObserver(fn WindowObserver) { ss.winObs = fn }

// observeWindow reports one barrier. GVT is simply the earliest next
// event: nothing ever runs ahead of it.
func (ss *ShardSet) observeWindow(runnable int) {
	ws := WindowStats{
		Window:       ss.windows,
		Runnable:     runnable,
		MailInjected: ss.mailDelivered,
	}
	gvt := Infinity
	end := Time(0)
	for i, e := range ss.engines {
		ws.Executed += e.executed
		if ss.next[i] < gvt {
			gvt = ss.next[i]
		}
		if ss.ends[i] < Infinity && ss.ends[i] > end {
			end = ss.ends[i]
		}
	}
	ws.GVT = gvt
	ws.WindowEnd = end
	ws.MaxNow = ss.Now()
	ss.winObs(ws)
}
