package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of measurements of one quantity, in whatever unit the
// caller recorded them.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). An empty list yields 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// typicalQ is the quantile of a cell's repeated samples that stands for
// its cost. On a shared VM, bursts of other tenants' load slow a share of
// any repeated operation by up to twice; the fast end of the samples shows
// them least, so a cell's cost is read at its 10th percentile.
const typicalQ = 0.1

// cells groups the samples of repeated identical work by what was measured
// (one program's build at one node count, say), so each cell's cost can be
// read from its own samples before cells of very different costs are
// compared. Quantiles taken straight over a mix of cells would fall on the
// boundary between two cells, where they swing with the host's noise.
type cells map[string]*samples

func (c cells) add(key string, v float64) {
	s := c[key]
	if s == nil {
		s = new(samples)
		c[key] = s
	}
	s.add(v)
}

func (c cells) addDur(key string, d, unit time.Duration) {
	c.add(key, float64(d)/float64(unit))
}

// minCell is the fewest samples a cell needs to have a cost: fewer cannot
// show where the fast end is. (The service's perimeter makes one or two
// new-size jobs in a run, so it has no cold-compile cost.)
const minCell = 5

// typical returns every cell's cost (its typicalQ quantile), one value per
// cell with at least minCell samples (every cell, if the cells average
// fewer); its quantiles are quantiles over cells.
func (c cells) typical() samples { return c.costs(typicalQ) }

// typicalRate is typical for rates, whose fast end is their top.
func (c cells) typicalRate() samples { return c.costs(1 - typicalQ) }

func (c cells) costs(q float64) samples {
	least := minCell
	if c.count() < minCell*len(c) {
		least = 1 // a short run (a smoke test): every cell counts
	}
	var out samples
	for _, s := range c {
		if len(*s) >= least {
			out.add(s.quantile(q))
		}
	}
	return out
}

// total sums the cells' costs: the cost of doing every cell once.
func (c cells) total() float64 {
	var sum float64
	for _, v := range c.typical() {
		sum += v
	}
	return sum
}

// count returns the number of samples over all cells.
func (c cells) count() int {
	n := 0
	for _, s := range c {
		n += len(*s)
	}
	return n
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
