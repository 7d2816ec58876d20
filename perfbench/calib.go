package main

import "time"

// The host's own speed drifts: on a shared 2-vCPU Xeon VM, the fast end of
// every benchmark cell moved by 15-30% between runs of the same code a few
// minutes apart, while within one run it held steady. So every workload
// times a reference loop between its operations, and the end-to-end times
// are reported at a reference host speed: divided (rates multiplied) by
// the loop's typical time in the same run over refLoopMs. Across runs of
// identical code whose raw figures spread 15-30%, the scaled figures spread
// 5-20%. A change to the program still shows in full: the loop is the
// benchmark's own code and runs between the program's operations, never
// during them.

// refLoopMs is the reference loop's time, in ms, at the reference speed.
const refLoopMs = 1.0

// probeHost times the reference loop n times, adding each to o's samples.
func (o *outcome) probeHost(n int) {
	for i := 0; i < n; i++ {
		o.hostLoop.addDur(refLoop(), time.Millisecond)
	}
}

// hostScale is how many times slower the host ran than the reference
// speed: the loop's typical time over the reference time.
func (o *outcome) hostScale() float64 {
	return o.hostLoop.quantile(typicalQ) / refLoopMs
}

type refNode struct {
	left, right *refNode
	key         int
}

// refSink keeps the loop's result alive.
var refSink int

// refLoop builds a binary search tree of 6000 random keys, then walks it
// into a map, and returns how long that took: allocation, pointer chasing
// and hashing, the profile of the compiler and the simulator.
func refLoop() time.Duration {
	t0 := time.Now()
	var root *refNode
	x := uint64(7)
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x >> 40)
		n := &refNode{key: k}
		if root == nil {
			root = n
			continue
		}
		for p := root; ; {
			if k < p.key {
				if p.left == nil {
					p.left = n
					break
				}
				p = p.left
			} else {
				if p.right == nil {
					p.right = n
					break
				}
				p = p.right
			}
		}
	}
	m := make(map[int]int)
	var walk func(*refNode)
	walk = func(n *refNode) {
		if n == nil {
			return
		}
		walk(n.left)
		m[n.key&4095] += n.key
		walk(n.right)
	}
	walk(root)
	refSink += len(m)
	return time.Since(t0)
}
