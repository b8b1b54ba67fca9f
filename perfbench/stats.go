package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond the reported
// tail percentile: with fewer, the "tail" is a handful of outliers.
const minBeyond = 10

// tailLadder lists the percentiles, in per mille, the tail is chosen
// from: the nines. A fixed ladder keeps the choice the same from run to
// run while the sample count stays inside one band (100-999 samples give
// p90, 1000-9999 p99), and in that band the tail rests on more than ten
// samples.
var tailLadder = []int{999, 990, 900}

// tail is the highest percentile of a sample that still has minBeyond
// samples above it, with the facts needed to state it.
type tail struct {
	Pct    float64 // percentile, in percent
	Value  float64
	N      int // sample count
	Beyond int // samples above the reported rank
}

// tailOf returns the highest ladder percentile of xs, by nearest rank,
// that has at least minBeyond samples beyond it.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	s := sortedCopy(xs)
	for _, pm := range tailLadder {
		k := (pm*n + 999) / 1000 // 1-based nearest rank
		if k >= 1 && n-k >= minBeyond {
			return tail{Pct: float64(pm) / 10, Value: s[k-1], N: n, Beyond: n - k}, nil
		}
	}
	return tail{}, fmt.Errorf("no tail percentile has %d of %d samples beyond it", minBeyond, n)
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples (%d beyond)", t.Pct, t.N, t.Beyond)
}

// median is the interpolated 50th percentile; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

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

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// relClose reports whether a and b agree to tol relative to the larger
// magnitude.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
