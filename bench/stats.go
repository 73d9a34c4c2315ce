package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may be reported at besides the
// median, lowest first.
var tailLadder = []float64{75, 90, 95, 99}

// tailPercentile applies the percentile rule: the highest percentile of the
// ladder, at most limit, that still has ten of n samples beyond it. The
// median is always reported, so it is the floor.
func tailPercentile(n int, limit float64) float64 {
	p := 50.0
	for _, q := range tailLadder {
		if q <= limit && float64(n)*(100-q)/100 >= 10 {
			p = q
		}
	}
	return p
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile reads the p-th percentile (0–100) off ascending xs by linear
// interpolation between closest ranks. An empty set has no percentiles.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// summary is a set of values reduced the way every figure is reported:
// median with the quartiles and the count beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{Median: percentile(s, 50), Q1: quartile(s, 1), Q3: quartile(s, 3), N: len(s)}
}

// quartile cuts ascending xs the way the driver does, which is Python's
// statistics.quantiles(xs, n=4): the i-th of three cut points sits at rank
// i·(n+1)/4, interpolated between the two values around it.
func quartile(xs []float64, i int) float64 {
	n := len(xs)
	if n < 2 {
		return percentile(xs, 50)
	}
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - 4*j)
	return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
