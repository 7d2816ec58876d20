package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The oracles below compute the programs' answers in plain Go, without the
// compiler or simulator under test, so a miscompile that keeps simple and
// optimized builds in agreement still shows.

// gridPerimeter is the perimeter benchmark's answer by brute force: a cell
// is black when its center lies inside the disk of radius size-1 centered at
// (size, size) in doubled coordinates (the benchmark's classify); the
// perimeter counts unit edges between black cells and white or outside ones.
func gridPerimeter(depth int) int {
	size := 1 << depth
	black := func(x, y int) bool {
		if x < 0 || y < 0 || x >= size || y >= size {
			return false
		}
		dx := 2*x + 1 - size
		dy := 2*y + 1 - size
		r := size - 1
		return dx*dx+dy*dy <= r*r
	}
	per := 0
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if !black(x, y) {
				continue
			}
			for _, d := range [][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}} {
				if !black(x+d[0], y+d[1]) {
					per++
				}
			}
		}
	}
	return per
}

// voronoiPoints regenerates the voronoi benchmark's points by replaying its
// build() recursion (same LCG, same seed threading).
func voronoiPoints(n int, seed int64, out *[][2]float64) {
	if n == 0 {
		return
	}
	next := func(s int64) int64 { return (s*1103515245 + 12345) % 2147483647 }
	s := next(seed)
	x := float64(s%1000000) / 1000.0
	s = next(s)
	y := float64(s%1000000) / 1000.0
	*out = append(*out, [2]float64{x, y})
	nl := (n - 1) / 2
	voronoiPoints(nl, s+29, out)
	s = next(s + 13)
	voronoiPoints(n-1-nl, s, out)
}

// convexHull returns the hull's vertex count and circumference (Andrew's
// monotone chain).
func convexHull(pts [][2]float64) (int, float64) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	cross := func(o, a, b [2]float64) float64 {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	var hull [][2]float64
	for _, p := range pts {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	lower := len(hull) + 1
	for i := len(pts) - 2; i >= 0; i-- {
		p := pts[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	hull = hull[:len(hull)-1]
	total := 0.0
	for i := range hull {
		j := (i + 1) % len(hull)
		dx := hull[i][0] - hull[j][0]
		dy := hull[i][1] - hull[j][1]
		total += math.Sqrt(dx*dx + dy*dy)
	}
	return len(hull), total
}

// voronoiSeed is the seed the voronoi benchmark's main passes to build().
const voronoiSeed = 1234

// haloSum is the halo benchmark's answer: iters Jacobi sweeps over a ring of
// n cells, then the sum in ring order.
func haloSum(n, iters int) float64 {
	val := make([]float64, n)
	upd := make([]float64, n)
	for i := range val {
		val[i] = 1.0 + float64(i%7)/3.0
	}
	for it := 0; it < iters; it++ {
		for i := range val {
			a, b := val[(i+n-1)%n], val[(i+1)%n]
			// Explicit conversions keep each product rounded, as the
			// simulator's separate multiply and add instructions are.
			upd[i] = float64(float64(0.25*a)+float64(0.5*val[i])) + float64(0.25*b)
		}
		copy(val, upd)
	}
	sum := 0.0
	for _, v := range val {
		sum += v
	}
	return sum
}

// oracleCheck compares a program's printed output with the oracle for that
// program, if it has one; the other programs are checked by agreement
// between builds.
func oracleCheck(program string, size, iters, nodes int, output string) error {
	lines := strings.Split(strings.TrimSpace(output), "\n")
	switch program {
	case "perimeter":
		want := gridPerimeter(size)
		if len(lines) != 1 || lines[0] != strconv.Itoa(want) {
			return fmt.Errorf("perimeter depth %d: output %q, grid oracle %d", size, output, want)
		}
	case "voronoi":
		var pts [][2]float64
		voronoiPoints(size, voronoiSeed, &pts)
		wantN, wantLen := convexHull(pts)
		if len(lines) != 2 {
			return fmt.Errorf("voronoi n=%d: output %q, want two lines", size, output)
		}
		gotN, err1 := strconv.Atoi(lines[0])
		gotLen, err2 := strconv.ParseFloat(lines[1], 64)
		if err1 != nil || err2 != nil || gotN != wantN || math.Abs(gotLen-wantLen) > 1e-3 {
			return fmt.Errorf("voronoi n=%d: output %q, hull oracle %d %.6f", size, output, wantN, wantLen)
		}
	case "halo":
		want := haloSum(nodes, iters)
		got, err := strconv.ParseFloat(strings.TrimSpace(output), 64)
		if err != nil || math.Abs(got-want) > 1e-6*math.Abs(want) {
			return fmt.Errorf("halo %d nodes: output %q, Jacobi oracle %.6f", nodes, output, want)
		}
	}
	return nil
}
