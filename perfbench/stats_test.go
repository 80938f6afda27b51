package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64 // 0: must refuse
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{1000, 0.99, 990},
		{999, 0.99, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(1000), q); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
