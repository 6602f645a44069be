package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	return s
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := seq(2000) // samples 1..2000
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 1000},  // ceil(0.5·2000) = 1000
		{0.99, 1980}, // ceil(0.99·2000) = 1980
		{0.001, 2},   // ceil(2) = 2
		{0.0001, 1},  // ceil(0.2) = 1
	} {
		got, err := quantile(s, c.q)
		if err != nil {
			t.Fatalf("q=%v: %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("q=%v: got %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileOddCountPicksASample(t *testing.T) {
	got, err := quantile(seq(25), 0.5)
	if err != nil || got != 13 {
		t.Fatalf("median of 25 = %d, %v; want the 13th sample", got, err)
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	// p99 of 1000 samples is rank 990, leaving exactly 10 beyond it.
	if got, err := quantile(seq(1000), 0.99); err != nil || got != 990 {
		t.Fatalf("p99 of 1000 = %d, %v; want 990", got, err)
	}
	// 999 samples: rank ceil(989.01) = 990, only 9 beyond.
	if _, err := quantile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 samples beyond it")
	}
	// A median needs 20 samples: 10 at or below, 10 beyond.
	if _, err := quantile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond it")
	}
	if _, err := quantile(seq(20), 0.5); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples accepted")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean(1,100) = %v", g)
	}
	if d := durationMedian([]time.Duration{5, 1, 9}); d != 5 {
		t.Errorf("durationMedian = %v", d)
	}
}
