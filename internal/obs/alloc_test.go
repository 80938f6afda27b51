package obs

import (
	"testing"

	"sunuintah/internal/sim"
)

// The disabled recorder must stay free: every hook on nil probes (the
// state of every run without -report) is a no-op that allocates nothing,
// so attaching the obs plumbing to the hot paths cannot regress the
// benchgate e2e numbers.
func TestNilProbesZeroAlloc(t *testing.T) {
	var p *RankProbes
	var s *Sampler
	allocs := testing.AllocsPerRun(200, func() {
		p.QueueDepth(1, 3)
		p.QueueDelta(1, -1)
		p.Prepared(1, 2)
		p.Gangs(1, 1)
		p.MsgSent(1, 4096, 2)
		p.DMA(1, 1<<16)
		p.Mem(1, 1<<20)
		p.Fault(1)
		p.Recovery(1)
		_ = s.Rank(3)
		s.Finalize(1)
	})
	if allocs != 0 {
		t.Fatalf("nil probes allocated %.1f times per run, want 0", allocs)
	}
}

// The introspection hooks added for window telemetry and live
// progress follow the same contract: a nil recorder's Observe and a
// publish with no subscriber — what every non-instrumented, non-followed
// run pays per window and per rank-step — allocate nothing.
func TestNilWindowAndProgressZeroAlloc(t *testing.T) {
	var rec *WindowRecorder
	var nilBus *ProgressBus
	bus := NewProgressBus()
	ws := sim.WindowStats{Window: 3, Executed: 100}
	ev := ProgressEvent{Rank: 1, Step: 2, Done: 3, Total: 10}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Observe(ws)
		nilBus.Publish("topic", ev)
		bus.Publish("topic", ev)
	})
	if allocs != 0 {
		t.Fatalf("disabled window/progress hooks allocated %.1f times per run, want 0", allocs)
	}
}
