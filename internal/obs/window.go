package obs

import (
	"fmt"
	"io"

	"sunuintah/internal/sim"
)

// Window is one recorded coordinator barrier. Counter fields are
// cumulative at the barrier (mirroring sim.WindowStats), which keeps the
// stream self-consistent under decimation: consumers diff adjacent kept
// rows to recover per-stride deltas.
type Window struct {
	Window       int64   `json:"window"`
	GVT          float64 `json:"gvt"`
	LagSeconds   float64 `json:"lagSeconds"`  // furthest shard clock ahead of GVT
	SpanSeconds  float64 `json:"spanSeconds"` // widest finite window granted
	Runnable     int     `json:"runnable"`
	Executed     uint64  `json:"executed"`
	MailInjected int64   `json:"mailInjected"`
}

// WindowReport is the per-window shard-coordinator telemetry of one run:
// the decimated barrier stream plus the final cumulative row.
// Deterministic for a fixed shard count; across shard counts the stream
// legitimately differs, so core carries it outside the Result JSON that
// the bit-identity gates compare.
type WindowReport struct {
	// Stride is the barrier distance between kept rows after decimation
	// (1 until the recorder overflowed).
	Stride  int      `json:"stride"`
	Seen    int64    `json:"seen"` // barriers observed in total
	Windows []Window `json:"windows"`
	// Total is the last observed barrier, kept even when decimation
	// dropped it from Windows — the end-of-run cumulative counters.
	Total Window `json:"total"`
}

// WindowRecorder accumulates WindowStats rows with bounded memory, using
// the same overflow policy as Series: at capacity, every other kept row
// is dropped and the keep-stride doubles, so long runs lose resolution
// instead of growing. Rows are kept at barrier ordinals ≡ 1 (mod stride)
// — barrier numbering is 1-based — so decimation preserves a regular
// grid. A nil recorder's Observe is a no-op, the zero-cost disabled
// pattern shared with RankProbes.
type WindowRecorder struct {
	max    int
	stride int64
	rows   []Window
	last   Window
	seen   int64
}

// NewWindowRecorder bounds the recorder at maxRows kept rows (rounded up
// to even; <= 0 selects DefaultMaxSamples).
func NewWindowRecorder(maxRows int) *WindowRecorder {
	if maxRows <= 0 {
		maxRows = DefaultMaxSamples
	}
	if maxRows%2 != 0 {
		maxRows++
	}
	return &WindowRecorder{max: maxRows, stride: 1}
}

// Observe records one barrier. It is a sim.WindowObserver and runs on the
// coordinator goroutine between windows: no locking, bounded work.
func (r *WindowRecorder) Observe(ws sim.WindowStats) {
	if r == nil {
		return
	}
	row := Window{
		Window:       ws.Window,
		GVT:          clampTime(ws.GVT),
		Runnable:     ws.Runnable,
		Executed:     ws.Executed,
		MailInjected: ws.MailInjected,
	}
	if ws.MaxNow > ws.GVT && ws.GVT < sim.Infinity {
		row.LagSeconds = float64(ws.MaxNow - ws.GVT)
	}
	if ws.WindowEnd > ws.GVT && ws.WindowEnd < sim.Infinity {
		row.SpanSeconds = float64(ws.WindowEnd - ws.GVT)
	}
	r.last = row
	r.seen++
	// Keep barriers on the stride grid; (seen-1) is the 0-based ordinal.
	if (r.seen-1)%r.stride != 0 {
		return
	}
	if len(r.rows) >= r.max {
		half := len(r.rows) / 2
		for i := 0; i < half; i++ {
			r.rows[i] = r.rows[2*i]
		}
		r.rows = r.rows[:half]
		r.stride *= 2
		// The incoming ordinal is max*oldStride, divisible by the doubled
		// stride (max is even), so it lands on the coarser grid too.
	}
	r.rows = append(r.rows, row)
}

// Report snapshots the recorded stream; nil when nothing was observed
// (serial engine, or no windows ran).
func (r *WindowRecorder) Report() *WindowReport {
	if r == nil || r.seen == 0 {
		return nil
	}
	return &WindowReport{
		Stride:  int(r.stride),
		Seen:    r.seen,
		Windows: append([]Window(nil), r.rows...),
		Total:   r.last,
	}
}

// WriteTable renders the stream as a compact table: per-row deltas for
// the counters, instantaneous values for the gauges.
func (wr *WindowReport) WriteTable(w io.Writer) {
	if wr == nil || len(wr.Windows) == 0 {
		fmt.Fprintln(w, "no window telemetry (serial engine)")
		return
	}
	t := wr.Total
	fmt.Fprintf(w, "windows: %d barriers (stride %d), %d executed, gvt %.6g s\n",
		wr.Seen, wr.Stride, t.Executed, t.GVT)
	fmt.Fprintf(w, "%8s %12s %10s %10s\n", "window", "gvt", "lag.s", "exec+")
	var prev Window
	for _, row := range wr.Windows {
		fmt.Fprintf(w, "%8d %12.6g %10.3g %10d\n",
			row.Window, row.GVT, row.LagSeconds, row.Executed-prev.Executed)
		prev = row
	}
}

// clampTime converts a sim.Time to a JSON-friendly float: the Infinity
// sentinel (idle shards) renders as 0 rather than 1.8e308.
func clampTime(t sim.Time) float64 {
	if t >= sim.Infinity {
		return 0
	}
	return float64(t)
}
