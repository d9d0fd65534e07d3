package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is mostly noise.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailLevel returns the highest of tailLevels that has at least minBeyond
// of n samples beyond it, or 0 when even the median has fewer.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps float error (99.9/100*1000 = 999.0000000000001)
	// from skipping a rank.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a sample set of one measured quantity.
type dist struct{ v []float64 }

func (d *dist) add(x float64)                              { d.v = append(d.v, x) }
func (d *dist) addDur(x time.Duration, unit time.Duration) { d.add(float64(x) / float64(unit)) }
func (d *dist) n() int                                     { return len(d.v) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s
}

// p returns the p-th percentile (NaN when empty).
func (d *dist) p(p float64) float64 { return percentile(d.sorted(), p) }

// median returns the 50th percentile.
func (d *dist) median() float64 { return d.p(50) }

// max returns the largest sample (NaN when empty).
func (d *dist) max() float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	m := d.v[0]
	for _, x := range d.v[1:] {
		m = math.Max(m, x)
	}
	return m
}

// tail returns the reportable tail percentile and its value.
func (d *dist) tail() (level, value float64) {
	level = tailLevel(d.n())
	if level == 0 {
		return 0, math.NaN()
	}
	return level, d.p(level)
}
