package population

import (
	"fmt"

	"plurality/internal/rng"
)

// Fenwick is a binary indexed tree over opinion counts supporting
// O(log k) point updates and O(log k) sampling of a uniformly random
// vertex's opinion (i.e. opinion i with probability count(i)/total).
//
// The asynchronous schedulers in internal/async use it to run one
// single-vertex update per tick without rebuilding any distribution
// table: pick the updating vertex's class, pick the sampled neighbors'
// classes, then apply the ±1 count deltas. The flat batch kernel in
// internal/core uses it for 2-Choices' sampled-agreement rounds, as
// weighted sampling without replacement (Sample, then Add(i, -1)).
//
// The tree is padded to P+1 entries, where P is the least power of two
// not below k, so Sample's descent has a top bit fixed at build time
// and visits exactly log₂P levels without a bounds or direction
// branch. The padding slots k+1..P hold zero counts; updates walk
// through them like any other slot, so every node still stores its
// exact range sum. A padding slot is never returned: the descent
// returns the largest idx with prefix(idx) ≤ target, and prefix(j) =
// total > target for every j ≥ k. Hence each draw maps to the same
// index an unpadded, branching descent would return, and the streams
// are unchanged. The same argument skips the root: node P holds the
// total, is never taken, and the descent starts from P/2.
type Fenwick struct {
	tree  []int64 // 1-based prefix-sum tree over the padded slots, len P+1
	count []int64 // plain counts, for O(1) reads
	total int64
}

// NewFenwick builds a tree over a copy of counts. Counts must be
// non-negative with a positive total.
func NewFenwick(counts []int64) *Fenwick {
	f := new(Fenwick)
	f.Reset(counts)
	return f
}

// Reset rebuilds f over a copy of counts, reusing its buffers; the
// result is the same tree NewFenwick(counts) builds. Counts must be
// non-negative with a positive total.
func (f *Fenwick) Reset(counts []int64) {
	pad := 1
	for pad < len(counts) {
		pad <<= 1
	}
	if cap(f.tree) < pad+1 {
		f.tree = make([]int64, pad+1)
	}
	tree := f.tree[:pad+1]
	tree[0] = 0
	copy(tree[1:], counts)
	clear(tree[len(counts)+1:])
	var total int64
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("population: Fenwick over negative count %d at %d", c, i))
		}
		total += c
	}
	if total <= 0 {
		panic("population: Fenwick with zero total")
	}
	// Standard O(P) construction: push each node's sum to its parent.
	for idx := 1; idx < pad; idx++ {
		tree[idx+(idx&-idx)] += tree[idx]
	}
	f.count = append(f.count[:0], counts...)
	f.total = total
	f.tree = tree
}

// K returns the number of opinion slots.
func (f *Fenwick) K() int { return len(f.count) }

// Total returns the sum of all counts (the number of vertices).
func (f *Fenwick) Total() int64 { return f.total }

// Count returns the count of opinion i.
func (f *Fenwick) Count(i int) int64 { return f.count[i] }

// Add applies a delta to opinion i's count. The resulting count must
// remain non-negative.
func (f *Fenwick) Add(i int, delta int64) {
	if f.count[i]+delta < 0 {
		panic(fmt.Sprintf("population: Fenwick.Add would make count %d negative", i))
	}
	f.count[i] += delta
	f.total += delta
	for idx := i + 1; idx < len(f.tree); idx += idx & -idx {
		f.tree[idx] += delta
	}
}

// Move transfers one vertex from opinion from to opinion to.
func (f *Fenwick) Move(from, to int) {
	if from == to {
		return
	}
	f.Add(from, -1)
	f.Add(to, 1)
}

// Sample returns opinion i with probability Count(i)/Total(): one
// Int63n draw, then the descent of search.
func (f *Fenwick) Sample(r *rng.Rand) int {
	return f.search(r.Int63n(f.total))
}

// search returns the 0-based opinion whose prefix range contains
// target, for target in [0, total): a branch-free descent of the padded
// tree from bit P/2, where each level takes the node when its sum does
// not exceed the remaining target — as a mask, not a branch.
func (f *Fenwick) search(target int64) int {
	tree := f.tree
	idx := 0
	for bit := (len(tree) - 1) >> 1; bit > 0; bit >>= 1 {
		v := tree[idx+bit]
		take := ^((target - v) >> 63) // all ones iff v <= target
		target -= v & take
		idx += bit & int(take)
	}
	return idx
}

// Counts returns a copy of the current counts.
func (f *Fenwick) Counts() []int64 {
	return append([]int64(nil), f.count...)
}

// Vector materializes the current counts as a population Vector.
func (f *Fenwick) Vector() *Vector {
	return mustFromOwnedCounts(f.Counts())
}
