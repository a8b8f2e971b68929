package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true},  // rank 190, 10 beyond
		{199, 95, false}, // rank 190, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{1, 50, true},    // a median is always reported
		{0, 50, false},   // but not of nothing
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{2000, 99, true}, // rank 1980, 20 beyond
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	if got := highestSupported(250, 50, 95, 99); got != 95 {
		t.Errorf("250 samples: highest supported = p%g, want p95", got)
	}
	if got := highestSupported(1000, 50, 95, 99); got != 99 {
		t.Errorf("1000 samples: highest supported = p%g, want p99", got)
	}
	if got := highestSupported(0, 50, 95); got != 0 {
		t.Errorf("no samples: highest supported = p%g, want none", got)
	}
}

func TestPercentileValueAndError(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	v, err := percentile(xs, 95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	_, err = percentile(xs[:150], 99)
	if err == nil || !strings.Contains(err.Error(), "150 values") {
		t.Fatalf("p99 of 150 samples: err = %v, want one naming the sample count", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func iv(lo, hi time.Duration) span { return span{Start: lo, End: hi} }

func TestSelfTime(t *testing.T) {
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(10, 20), iv(50, 60)}, 80},
		// Overlapping children count once; children spilling past the
		// parent are clipped to it.
		{"overlap and clip", []span{iv(10, 30), iv(20, 40), iv(90, 120), iv(-5, 2)}, 58},
		{"nested", []span{iv(10, 50), iv(20, 30)}, 60},
		{"covering", []span{iv(-10, 200)}, 0},
		{"outside", []span{iv(100, 150), iv(-20, 0)}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}
