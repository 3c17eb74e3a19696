package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// v exactly as Python's statistics.quantiles(v, n=4) computes them
// (the default "exclusive" method, which extrapolates past the ends
// of small samples), so the spreads this benchmark reports match the
// ones an outside checker derives from the same values. A single
// value is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentiles are the percentiles a latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest percentile in tailPercentiles
// that has at least minBeyond of n samples beyond it, or 0 when even
// the median has fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// The epsilon absorbs rounding in 100-p for p such as 99.9.
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of v by the nearest-rank
// method: the smallest sample with at least p percent of the samples
// at or below it. It fails when fewer than minBeyond samples lie
// beyond it, so a tail figure is never read off a handful of samples.
func percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	if n == 0 || highestPercentile(n) < p {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f",
			p, minBeyond, n, float64(n)*(100-p)/100)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// metric is one reported figure: its value, unit and the samples it
// was taken from. A metric from a single measurement has one sample.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	// Note says why a per-layer metric is absent from this workload's
	// traced run (its value is then 0), or how it was derived.
	Note string `json:"note,omitempty"`
}

// metrics is a run's named figures.
type metrics map[string]metric

// median records the median of samples, with their quartiles.
func (m metrics) median(name, unit string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	m[name] = metric{Value: med, Unit: unit, Samples: len(samples), Q1: q1, Q3: q3}
}

// value records a single measurement or an exact count.
func (m metrics) value(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit, Samples: 1, Q1: v, Q3: v}
}

// absent records a per-layer metric this workload does not exercise.
func (m metrics) absent(name, unit, why string) {
	m[name] = metric{Unit: unit, Note: why}
}
