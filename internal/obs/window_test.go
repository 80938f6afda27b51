package obs

import (
	"bytes"
	"strings"
	"testing"

	"sunuintah/internal/sim"
)

func windowStats(i int) sim.WindowStats {
	return sim.WindowStats{
		Window:   int64(i),
		GVT:      sim.Time(i) * 0.001,
		MaxNow:   sim.Time(i)*0.001 + 0.0005,
		Runnable: 2,
		Executed: uint64(i) * 10,
	}
}

func TestWindowRecorderDecimation(t *testing.T) {
	r := NewWindowRecorder(8)
	for i := 1; i <= 40; i++ {
		r.Observe(windowStats(i))
	}
	rep := r.Report()
	if rep == nil {
		t.Fatal("nil report after 40 windows")
	}
	if rep.Seen != 40 {
		t.Fatalf("seen = %d, want 40", rep.Seen)
	}
	if len(rep.Windows) > 8 {
		t.Fatalf("rows exceed cap: %d", len(rep.Windows))
	}
	if rep.Stride&(rep.Stride-1) != 0 || rep.Stride < 2 {
		t.Fatalf("stride = %d, want a power of two > 1 after overflow", rep.Stride)
	}
	// Kept rows sit on the stride grid (1-based barrier ordinals ≡ 1 mod
	// stride) and stay in order.
	for i, row := range rep.Windows {
		if (row.Window-1)%int64(rep.Stride) != 0 {
			t.Fatalf("row %d (window %d) off the stride-%d grid", i, row.Window, rep.Stride)
		}
		if i > 0 && row.Window <= rep.Windows[i-1].Window {
			t.Fatalf("rows out of order at %d: %d after %d", i, row.Window, rep.Windows[i-1].Window)
		}
	}
	if rep.Total.Window != 40 || rep.Total.Executed != 400 {
		t.Fatalf("total = %+v, want the 40th barrier's cumulative row", rep.Total)
	}
}

func TestWindowRecorderNilAndEmpty(t *testing.T) {
	var r *WindowRecorder
	r.Observe(windowStats(1)) // must not panic
	if r.Report() != nil {
		t.Fatal("nil recorder must report nil")
	}
	if NewWindowRecorder(4).Report() != nil {
		t.Fatal("untouched recorder must report nil")
	}
}

func TestWindowRecorderInfinityClamped(t *testing.T) {
	r := NewWindowRecorder(8)
	r.Observe(sim.WindowStats{
		Window: 1, GVT: sim.Infinity, MaxNow: sim.Infinity,
		WindowEnd: sim.Infinity,
	})
	r.Observe(sim.WindowStats{Window: 2, GVT: 1, MaxNow: 1, WindowEnd: sim.Infinity})
	for _, row := range r.Report().Windows {
		if row.GVT > 1 || row.LagSeconds != 0 || row.SpanSeconds != 0 {
			t.Fatalf("Infinity leaked into the row: %+v", row)
		}
	}
}

func TestWindowReportWriteTable(t *testing.T) {
	var buf bytes.Buffer
	var nilRep *WindowReport
	nilRep.WriteTable(&buf)
	if !strings.Contains(buf.String(), "no window telemetry") {
		t.Fatalf("nil table = %q", buf.String())
	}
	r := NewWindowRecorder(8)
	for i := 1; i <= 5; i++ {
		r.Observe(windowStats(i))
	}
	buf.Reset()
	r.Report().WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"windows:", "window", "gvt", "exec+"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
