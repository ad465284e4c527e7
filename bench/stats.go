package main

import "sort"

// summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// spreads computed here and by any script reading the records agree.
type summary struct {
	n           int
	q1, med, q3 float64
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	s := summary{n: len(xs)}
	if len(xs)%2 == 1 {
		s.med = xs[len(xs)/2]
	} else {
		s.med = (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	if len(xs) == 1 {
		s.q1, s.q3 = xs[0], xs[0]
		return s
	}
	s.q1, s.q3 = quartile(xs, 1), quartile(xs, 3)
	return s
}

// quartile is quantile i of 4 over sorted xs (len ≥ 2), exclusive method.
func quartile(xs []float64, i int) float64 {
	const n = 4
	ld := len(xs)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (xs[j-1]*(n-delta) + xs[j]*delta) / n
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func (s summary) scale(f float64) summary {
	s.q1 *= f
	s.med *= f
	s.q3 *= f
	return s
}
