package main

import "testing"

// A traced run whose units are slow must still gather the Run(1) spans
// sim.step_p90_s needs, instead of stopping at the minimum unit count
// and failing on the percentile.
func TestTracedRunGathersEnoughSteps(t *testing.T) {
	for _, c := range []struct{ steps, cycle, wantTraced int }{
		{20, 1, 5}, // 100 spans: exactly enough
		{40, 4, 4}, // 3 traced units suffice; the cycle boundary adds one
		{0, 1, 2},  // no step spans: the two-traced-unit minimum
	} {
		cfg := config{trace: true, seconds: 1e-9}
		st, err := runUnits(cfg, 1, c.cycle, c.steps, func(i int, traced bool) (unitResult, error) {
			u := unitResult{wallS: 1, cpuS: 1, rankSteps: 1}
			for j := 0; j < c.steps; j++ {
				u.stepS = append(u.stepS, float64(j))
			}
			return u, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.traced) != c.wantTraced {
			t.Errorf("%d steps, cycle %d: %d traced units, want %d", c.steps, c.cycle, len(st.traced), c.wantTraced)
		}
		o := newOutcome()
		if err := st.setLayers(o); err != nil {
			t.Errorf("%d steps, cycle %d: setLayers: %v", c.steps, c.cycle, err)
		}
	}
}
