package main

import "testing"

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	got := tailOf(xs)
	// Sorted 1..100: the value with exactly ten samples above it is 90.
	if got.Value != 90 || got.Beyond != tailBeyond || got.N != 100 || got.Pct != 90 {
		t.Fatalf("tailOf(1..100) = %+v, want value 90 at p90 with 10 beyond", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if xs[0] != 100 {
		t.Fatal("tailOf reordered its input")
	}
}

func TestTailPercentileFollowsSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{11, 100 * 1.0 / 11}, // the smallest sample with ten beyond
		{20, 50},
		{400, 97.5},
		{1000, 99},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		got := tailOf(xs)
		if got.Pct != tc.wantPct || got.Value != float64(tc.n-11) {
			t.Errorf("n=%d: %+v, want value %d at p%g", tc.n, got, tc.n-11, tc.wantPct)
		}
	}
}

func TestTailWithTooFewSamplesIsFlagged(t *testing.T) {
	got := tailOf([]float64{3, 1, 2})
	if got.Value != 3 || got.Beyond != 0 || got.Pct != 100 {
		t.Fatalf("tailOf of 3 samples = %+v, want the max with 0 beyond", got)
	}
	if (tailOf(nil) != tail{}) {
		t.Fatal("tailOf(nil) is not empty")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if q := quantile(xs, 0.99); q != 100 {
		t.Errorf("p99 = %v, want 100", q)
	}
	if q := quantile(xs, 0.5); q != 50 {
		t.Errorf("p50 = %v, want 50", q)
	}
}
