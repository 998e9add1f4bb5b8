package core

import (
	"plurality/internal/population"
	"plurality/internal/rng"
)

// This file holds the shared samplers of the O(live) engine hot path.
// Each one picks between two exact samplers of the same law whose
// costs scale differently — conditional binomial draws cost O(live)
// CALLS into the log/exp-heavy binomial sampler regardless of how few
// vertices actually move, while per-trial methods pay O(live) cheap
// setup plus O(trials) constant-time draws. In the paper's many-
// opinions regime (k up to n) the early rounds have live ≫ moved
// vertices, so the per-trial side wins by an order of magnitude; late
// rounds have live ≪ n and flip back. Both sides sample the exact
// per-round law, so the choice never changes the process distribution.

// perTrialTrialsPerCategory is the trials-to-categories ratio below
// which sampleMultinomial prefers alias-table tallying: one binomial
// draw costs about an order of magnitude more than one alias sample
// plus its share of the O(live) table build.
const perTrialTrialsPerCategory = 6

// sampleMultinomial draws Multinomial(n, probs) into out, choosing
// between the conditional-binomial chain (one binomial draw per
// category) and per-trial alias tallying (build an alias table over
// probs, drop each of the n trials in O(1)). probs must be strictly
// positive.
func sampleMultinomial(r *rng.Rand, s *Scratch, n int64, probs []float64, out []int64) {
	if n <= int64(len(probs))*perTrialTrialsPerCategory {
		alias := s.Alias(probs)
		for j := range out {
			out[j] = 0
		}
		for t := int64(0); t < n; t++ {
			out[alias.Sample(r)]++
		}
		return
	}
	r.MultinomialDense(n, probs, out)
}

// maxGroupedCount is the largest count value the grouped multinomial
// sampler merges: a category holding count c receives c trials per
// round in expectation, so beyond ~the per-trial crossover the uniform
// within-group split stops being cheaper than one binomial draw per
// category.
const maxGroupedCount = 32

// sampleMultinomialGrouped draws Multinomial(n, probs) into out for a
// probability vector that is a pure function of the category counts —
// true for every count-space adoption law in this package (3-Majority,
// Voter, the 2-Choices destination law, USD redistribution): equal
// counts mean equal (bitwise, since computed by the same expression)
// probabilities. Categories sharing a small count c ≤ maxGroupedCount
// are merged into one super-category of weight m_c·p(c) — multinomial
// categories merge exactly — and each group total is then split
// uniformly over the group's members (the conditional law given the
// total of equal-probability categories), which needs only an Intn per
// trial instead of a binomial draw per category. In the many-opinions
// regime the live set is dominated by small equal counts, so this
// collapses most of the O(live) expensive draws into O(trials) cheap
// ones; the remaining large-count categories go through the hybrid
// sampler unchanged.
func sampleMultinomialGrouped(r *rng.Rand, s *Scratch, n int64, cnts []int64, probs []float64, out []int64) {
	L := len(cnts)
	// Bucket the category slots by count value (counting sort, two
	// passes): members[off[c]:off[c+1]] lists the slots with count c;
	// larger counts stay individual categories.
	var size [maxGroupedCount + 1]int32
	rest := 0
	for _, c := range cnts {
		if c <= maxGroupedCount {
			size[c]++
		} else {
			rest++
		}
	}
	groups := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if size[c] > 0 {
			groups++
		}
	}
	if groups+rest == L || L < 64 {
		// Every group is a singleton (or the problem is too small for
		// the two-stage overhead to pay off): merging gains nothing.
		sampleMultinomial(r, s, n, probs, out)
		return
	}
	var off [maxGroupedCount + 2]int32
	for c := 1; c <= maxGroupedCount; c++ {
		off[c+1] = off[c] + size[c]
	}
	members := s.Members(L)
	restList := members[off[maxGroupedCount+1]:] // tail holds the rest slots
	var cursor [maxGroupedCount + 1]int32
	copy(cursor[1:], off[1:])
	restN := 0
	for j, c := range cnts {
		if c <= maxGroupedCount {
			members[cursor[c]] = int32(j)
			cursor[c]++
		} else {
			restList[restN] = int32(j)
			restN++
		}
	}

	// Stage A: multinomial over the merged categories — one per
	// distinct small count (ascending), then the large categories in
	// slot order. Group weight = m_c · p(c), read off any member.
	gProbs := s.GroupProbs(groups + restN)
	gOuts := s.GroupOuts(groups + restN)
	g := 0
	for c := 1; c <= maxGroupedCount; c++ {
		if size[c] == 0 {
			continue
		}
		gProbs[g] = float64(size[c]) * probs[members[off[c]]]
		g++
	}
	for j := 0; j < restN; j++ {
		gProbs[groups+j] = probs[restList[j]]
	}
	sampleMultinomial(r, s, n, gProbs, gOuts)

	// Stage B: split each group total uniformly over its members.
	for j := range out {
		out[j] = 0
	}
	g = 0
	for c := 1; c <= maxGroupedCount; c++ {
		if size[c] == 0 {
			continue
		}
		m := int(size[c])
		grp := members[off[c] : off[c]+size[c]]
		T := gOuts[g]
		g++
		if T <= int64(m)*perTrialTrialsPerCategory {
			for t := int64(0); t < T; t++ {
				out[grp[r.Intn(m)]]++
			}
			continue
		}
		// Uniform conditional-binomial chain over the group members.
		remaining := T
		for j := 0; j < m-1 && remaining > 0; j++ {
			x := r.Binomial(remaining, 1/float64(m-j))
			out[grp[j]] = x
			remaining -= x
		}
		out[grp[m-1]] += remaining
	}
	for j := 0; j < restN; j++ {
		out[restList[j]] = gOuts[groups+j]
	}
}

// sampleBinomialEach draws agree[j] ~ Binomial(count(live[j]), p)
// independently for every live class and returns the total. The joint
// law is sampled one of two ways:
//
//   - directly, one binomial draw per class;
//   - or, when the expected total N·p is small relative to the number
//     of classes, by first drawing the total T ~ Binomial(N, p) — the
//     per-vertex view: every vertex independently succeeds with
//     probability p — and then selecting which T vertices succeeded as
//     a uniformly random T-subset, tallied per class by weighted
//     sampling without replacement on a Fenwick tree over the class
//     counts (O(live) build, O(T log live) draws). Conditioned on T
//     the subset is exactly uniform, so the per-class totals follow
//     the multivariate hypergeometric law, which recovers the same
//     independent-binomial joint distribution.
//
// 2-Choices' agreement decomposition is the caller: early many-opinion
// rounds have N·γ ≪ live, where the direct chain would pay live
// binomial draws to move a handful of vertices.
func sampleBinomialEach(r *rng.Rand, s *Scratch, v *population.Vector, p float64, agree []int64) int64 {
	counts := v.LiveCounts()
	if float64(v.N())*p >= float64(len(counts)) {
		var total int64
		for j, c := range counts {
			agree[j] = r.Binomial(c, p)
			total += agree[j]
		}
		return total
	}
	total := r.Binomial(v.N(), p)
	for j := range agree {
		agree[j] = 0
	}
	if total == 0 {
		return 0
	}
	// Fenwick tree over the dense live slots (1-based).
	tree := s.Fen(len(counts) + 1)
	for j := range tree {
		tree[j] = 0
	}
	for j, c := range counts {
		idx := j + 1
		tree[idx] += c
		if parent := idx + (idx & -idx); parent < len(tree) {
			tree[parent] += tree[idx]
		}
	}
	remaining := v.N()
	for t := int64(0); t < total; t++ {
		target := r.Int63n(remaining)
		// Descend the implicit prefix-sum tree. This is deliberately
		// not population.Fenwick's descent: the flat kernel, which
		// samples through that type, is proven against this serial
		// path, so the oracle keeps code of its own.
		idx := 0
		bit := 1
		for bit<<1 <= len(tree)-1 {
			bit <<= 1
		}
		for ; bit > 0; bit >>= 1 {
			next := idx + bit
			if next < len(tree) && tree[next] <= target {
				target -= tree[next]
				idx = next
			}
		}
		agree[idx]++
		for at := idx + 1; at < len(tree); at += at & -at {
			tree[at]--
		}
		remaining--
	}
	return total
}
