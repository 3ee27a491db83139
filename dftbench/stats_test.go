package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v, want 4", got)
	}
	if got := quantile(xs, 0.25); got != 1.75 {
		t.Fatalf("q.25 = %v, want 1.75", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{1099, 0.99, 10},
		{100, 0.90, 10},
		{99, 0.90, 9},
		{20, 0.5, 10},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}

	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	if _, err := tail(ramp(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with only 9 beyond")
	}
	v, err := tail(ramp(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", v)
	}
}
