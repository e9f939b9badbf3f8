package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is one or two outliers and
// says nothing repeatable.
const tailBeyond = 10

// tail is a latency tail: the highest percentile of a sample that
// still has tailBeyond samples beyond it.
type tail struct {
	Value  float64 // the sample at that rank
	Pct    float64 // percentile of Value (share of samples at or below it, in %)
	N      int     // sample count
	Beyond int     // samples beyond Value (tailBeyond unless N is too small)
}

// tailOf applies the tail rule to xs (in any order; xs is not
// modified). Sorted ascending, the value at index n-1-tailBeyond has
// exactly tailBeyond samples after it. With n <= tailBeyond no such
// rank exists, and the maximum is returned with Beyond = 0 so the
// report shows that the tail is unsupported.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		return tail{Value: s[n-1], Pct: 100, N: n}
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Beyond: tailBeyond}
}

// median returns the median of xs (mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile (q in [0,1]) of xs, or
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(i, 0), n-1)]
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
