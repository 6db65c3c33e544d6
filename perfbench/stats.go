package main

import (
	"sort"
	"time"
)

// quantiles cuts data into n equal-probability intervals and returns the
// n−1 cut points, by the same rule as Python's statistics.quantiles
// (method "exclusive"), so spreads printed here match the ones the
// benchmark is judged by. It needs at least two values.
func quantiles(data []float64, n int) []float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out = append(out, (d[j-1]*(float64(n)-delta)+d[j]*delta)/float64(n))
	}
	return out
}

// median is the middle value (the mean of the middle two for an even
// count); 0 for no data.
func median(data []float64) float64 {
	switch len(data) {
	case 0:
		return 0
	case 1:
		return data[0]
	}
	return quantiles(data, 2)[0]
}

// decile returns the k-th decile cut (k = 5 is the median, 9 the 90th
// percentile); the single value for one sample, 0 for none.
func decile(data []float64, k int) float64 {
	switch len(data) {
	case 0:
		return 0
	case 1:
		return data[0]
	}
	return quantiles(data, 10)[k-1]
}

// scaled converts durations to float64 in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
