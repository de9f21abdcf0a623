package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified; NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// window is the length of the sub-windows a run's step rate and latency
// quantiles are taken in.
const window = 4 * time.Second

// Noise on a shared machine only ever adds time: other tenants take the
// vCPUs away (steal time) in waves of a few seconds.  A run therefore
// reports the figure of its least disturbed sub-windows, the lower quartile
// of a timing and the upper quartile of a rate over them.
const (
	timingQ = 0.25
	rateQ   = 0.75
)

// windowQuantile splits [from, to) into equal windows of about `window`
// (at least one), calls f with the index range [lo, hi) of the events of
// the sorted times at that fall in each, and returns the q-quantile of the
// finite results (NaN when there are none).
func windowQuantile(at []time.Time, from, to time.Time, q float64, f func(lo, hi int) float64) float64 {
	n := max(1, int(math.Round(float64(to.Sub(from))/float64(window))))
	w := to.Sub(from) / time.Duration(n)
	var per []float64
	lo := 0
	for k := 1; k <= n; k++ {
		for lo < len(at) && at[lo].Before(from.Add(time.Duration(k-1)*w)) {
			lo++
		}
		hi := lo
		for hi < len(at) && at[hi].Before(from.Add(time.Duration(k)*w)) {
			hi++
		}
		if v := f(lo, hi); finite(v) {
			per = append(per, v)
		}
		lo = hi
	}
	return quantile(per, q)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
