package gossip

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"plurality/internal/population"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

func TestConfigValidation(t *testing.T) {
	init := population.MustFromCounts([]int64{5, 5})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero N", Config{N: 0, Rule: Voter, Init: init}},
		{"bad rule", Config{N: 10, Rule: Rule(0), Init: init}},
		{"nil init", Config{N: 10, Rule: Voter}},
		{"mismatched init", Config{N: 11, Rule: Voter, Init: init}},
		{"bad loss", Config{N: 10, Rule: Voter, Init: init, LossProb: 1}},
		{"bad crash id", Config{N: 10, Rule: Voter, Init: init, Crashed: []int{10}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestRuleNames(t *testing.T) {
	if ThreeMajority.Name() != "gossip-3-majority" ||
		TwoChoices.Name() != "gossip-2-choices" ||
		Voter.Name() != "gossip-voter" ||
		Rule(0).Name() != "gossip-unknown" {
		t.Fatal("rule names wrong")
	}
}

func TestRoundConservesPopulation(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    60,
		Rule: ThreeMajority,
		Init: population.MustFromCounts([]int64{20, 20, 20}),
		Seed: 1,
	})
	for i := 0; i < 10; i++ {
		v := nw.Round()
		if v.N() != 60 {
			t.Fatalf("round %d: population %d", i, v.N())
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestRunReachesConsensus(t *testing.T) {
	for _, rule := range []Rule{ThreeMajority, TwoChoices} {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			nw := mustNetwork(t, Config{
				N:    120,
				Rule: rule,
				Init: population.Balanced(120, 4),
				Seed: 2,
			})
			res := nw.Run(20000, nil, nil)
			if !res.Consensus {
				t.Fatalf("no consensus in %d rounds", res.Rounds)
			}
			v := nw.Counts()
			if op, ok := v.Consensus(); !ok || int32(op) != res.Winner {
				t.Fatalf("winner %d inconsistent with counts %v", res.Winner, v.Counts())
			}
		})
	}
}

func TestImmediateConsensus(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    10,
		Rule: Voter,
		Init: population.MustFromCounts([]int64{0, 10}),
		Seed: 3,
	})
	res := nw.Run(100, nil, nil)
	if !res.Consensus || res.Rounds != 0 || res.Winner != 1 {
		t.Fatalf("result %+v", res)
	}
}

// TestGossipMatchesCountsEngineLaw is the bridge between the
// node-by-node execution and the abstract Markov chain: the
// one-round mean counts of the gossip network must match the Eq. (5)
// law n·α(i)(1 + α(i) − γ) that internal/core samples directly.
func TestGossipMatchesCountsEngineLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("many network restarts")
	}
	init := population.MustFromCounts([]int64{60, 30, 10})
	const n, trials = 100, 600
	sums := make([]float64, 3)
	for trial := 0; trial < trials; trial++ {
		nw, err := New(Config{
			N:    n,
			Rule: ThreeMajority,
			Init: init,
			Seed: uint64(1000 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		v := nw.Round()
		nw.Close()
		for j := 0; j < 3; j++ {
			sums[j] += float64(v.Count(j))
		}
	}
	gamma := init.Gamma()
	for j := 0; j < 3; j++ {
		a := init.Alpha(j)
		want := float64(n) * a * (1 + a - gamma)
		got := sums[j] / trials
		se := math.Sqrt(float64(n) * a / float64(trials) * float64(n))
		_ = se
		if math.Abs(got-want) > 0.08*want+2 {
			t.Errorf("opinion %d: gossip mean %v, Eq.(5) mean %v", j, got, want)
		}
	}
}

// TestCrashedNodesFrozen: crashed nodes never change opinion, and the
// alive nodes still reach consensus among themselves.
func TestCrashedNodesFrozen(t *testing.T) {
	init := population.MustFromCounts([]int64{50, 50})
	crashed := []int{0, 1, 2, 99} // ids 0..49 hold opinion 0, 50..99 opinion 1
	nw := mustNetwork(t, Config{
		N:       100,
		Rule:    ThreeMajority,
		Init:    init,
		Seed:    4,
		Crashed: crashed,
	})
	res := nw.Run(20000, nil, nil)
	if !res.Consensus {
		t.Fatalf("alive nodes did not converge in %d rounds", res.Rounds)
	}
	// Crashed nodes keep their initial opinions.
	if nw.opinions[0] != 0 || nw.opinions[1] != 0 || nw.opinions[2] != 0 || nw.opinions[99] != 1 {
		t.Fatalf("crashed nodes changed opinion: %v %v %v %v",
			nw.opinions[0], nw.opinions[1], nw.opinions[2], nw.opinions[99])
	}
	// Counts show both opinions because the frozen minority remains.
	v := nw.Counts()
	if _, full := v.Consensus(); full && res.Winner == 0 {
		t.Fatal("full consensus impossible with a frozen crashed node on each side")
	}
}

// TestAllCrashedNoConsensus: with every node crashed nothing moves and
// AliveConsensus is vacuously false.
func TestAllCrashedNoConsensus(t *testing.T) {
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	nw := mustNetwork(t, Config{
		N:       10,
		Rule:    Voter,
		Init:    population.MustFromCounts([]int64{5, 5}),
		Seed:    5,
		Crashed: all,
	})
	res := nw.Run(5, nil, nil)
	if res.Consensus {
		t.Fatal("consensus among zero alive nodes")
	}
}

// TestLossSlowsButPreservesConsensus: pull loss turns rounds lazy but
// the dynamics still converge; heavy loss takes visibly longer.
func TestLossSlowsButPreservesConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	run := func(loss float64, seed uint64) int {
		total := 0
		const trials = 3
		for i := uint64(0); i < trials; i++ {
			nw, err := New(Config{
				N:        150,
				Rule:     TwoChoices,
				Init:     population.Balanced(150, 2),
				Seed:     seed + i,
				LossProb: loss,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := nw.Run(50000, nil, nil)
			nw.Close()
			if !res.Consensus {
				t.Fatalf("no consensus at loss %v", loss)
			}
			total += res.Rounds
		}
		return total
	}
	clean := run(0, 10)
	lossy := run(0.6, 20)
	if lossy <= clean {
		t.Errorf("60%% loss (%d rounds) not slower than clean (%d rounds)", lossy, clean)
	}
}

// TestValidityUnderGossip: extinct opinions never reappear in the
// concurrent execution either.
func TestValidityUnderGossip(t *testing.T) {
	nw := mustNetwork(t, Config{
		N:    80,
		Rule: ThreeMajority,
		Init: population.MustFromCounts([]int64{40, 0, 40}),
		Seed: 6,
	})
	for i := 0; i < 30; i++ {
		v := nw.Round()
		if v.Count(1) != 0 {
			t.Fatalf("round %d: extinct opinion resurrected", i)
		}
	}
}

// TestCloseIdempotent exercises shutdown paths.
func TestCloseIdempotent(t *testing.T) {
	nw, err := New(Config{
		N:    20,
		Rule: Voter,
		Init: population.Balanced(20, 2),
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	nw.Close() // second close must be a no-op
}

func TestRoundAfterClosePanics(t *testing.T) {
	nw, err := New(Config{
		N:    10,
		Rule: Voter,
		Init: population.Balanced(10, 2),
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Round after Close did not panic")
		}
	}()
	nw.Round()
}

func BenchmarkGossipRoundN500(b *testing.B) {
	nw, err := New(Config{
		N:    500,
		Rule: ThreeMajority,
		Init: population.Balanced(500, 8),
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Round()
	}
}

// pinCase is one recorded gossip execution: a rule, a tiny network
// (so self-pulls and pulls of crashed peers are frequent) and a fault
// model, with the outcome the seed produces.
type pinCase struct {
	rule   Rule
	n      int
	fault  string // "clean", "crashed" or "loss"
	rounds int
	winner int32
	counts []int64
	digest uint64 // FNV-1a over every round's counts
}

// pinConfig builds the network a pinCase describes: three opinions
// (fewer at n < 3), crashed nodes at both ends of the id range, or a
// 0.4 pull-loss probability.
func pinConfig(c pinCase) Config {
	k := 3
	if c.n < k {
		k = c.n
	}
	cfg := Config{
		N:    c.n,
		Rule: c.rule,
		Init: population.Balanced(int64(c.n), k),
		Seed: uint64(1000*int(c.rule) + 10*c.n + len(c.fault)),
	}
	switch c.fault {
	case "crashed":
		cfg.Crashed = []int{0, c.n - 1}
	case "loss":
		cfg.LossProb = 0.4
	}
	return cfg
}

// runPin executes a pinCase for at most 300 rounds and returns the
// result, the final counts and a digest of the whole count trajectory.
func runPin(t *testing.T, c pinCase) (Result, []int64, uint64) {
	t.Helper()
	nw := mustNetwork(t, pinConfig(c))
	h := fnv.New64a()
	var buf [8]byte
	digest := func(_ int64, v *population.Vector) bool {
		for _, x := range v.Counts() {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
		return false
	}
	res := nw.Run(300, nil, digest)
	return res, append([]int64(nil), nw.Counts().Counts()...), h.Sum64()
}

// TestOutcomesPinned pins each rule's executions under every fault
// model, so a change to the round loop that moves a single draw fails
// here. The values were recorded from the goroutine-per-node transport.
func TestOutcomesPinned(t *testing.T) {
	for _, c := range pinnedOutcomes {
		c := c
		t.Run(fmt.Sprintf("%s/n%d/%s", c.rule.Name(), c.n, c.fault), func(t *testing.T) {
			res, counts, digest := runPin(t, c)
			if res.Rounds != c.rounds || res.Winner != c.winner ||
				!slices.Equal(counts, c.counts) || digest != c.digest {
				t.Fatalf("got rounds=%d winner=%d counts=%v digest=%#x; pinned rounds=%d winner=%d counts=%v digest=%#x",
					res.Rounds, res.Winner, counts, digest, c.rounds, c.winner, c.counts, c.digest)
			}
		})
	}
}

// pinnedOutcomes: rule, n, fault, rounds, winner, final counts, digest.
var pinnedOutcomes = []pinCase{
	{ThreeMajority, 4, "clean", 6, 0, []int64{4, 0, 0}, 0x54c417e64bfb9da3},
	{ThreeMajority, 4, "crashed", 3, 0, []int64{3, 0, 1}, 0xf0ee94e55288d185},
	{ThreeMajority, 4, "loss", 9, 0, []int64{4, 0, 0}, 0x2f5c17e7cd92adc3},
	{ThreeMajority, 7, "clean", 6, 1, []int64{0, 7, 0}, 0x64525ef275fb47c2},
	{ThreeMajority, 7, "crashed", 3, 1, []int64{1, 5, 1}, 0xcc3ce4649533f2a7},
	{ThreeMajority, 7, "loss", 12, 1, []int64{0, 7, 0}, 0xbea6231ea17a8540},
	{ThreeMajority, 12, "clean", 6, 2, []int64{0, 0, 12}, 0xd61900d81cecbe25},
	{ThreeMajority, 12, "crashed", 6, 1, []int64{1, 10, 1}, 0x90e083091caeac0b},
	{ThreeMajority, 12, "loss", 13, 2, []int64{0, 0, 12}, 0x21d16f204b9ea72f},
	{TwoChoices, 4, "clean", 3, 0, []int64{4, 0, 0}, 0x9a31d8b378b71903},
	{TwoChoices, 4, "crashed", 2, 0, []int64{3, 0, 1}, 0x2b5667a1daae97c7},
	{TwoChoices, 4, "loss", 6, 0, []int64{4, 0, 0}, 0x78c7153476bbfba1},
	{TwoChoices, 7, "clean", 3, 2, []int64{0, 0, 7}, 0x6edaf11805becd21},
	{TwoChoices, 7, "crashed", 18, 0, []int64{6, 0, 1}, 0xc0fbdda11c989260},
	{TwoChoices, 7, "loss", 13, 0, []int64{7, 0, 0}, 0x143442222fb2b5a1},
	{TwoChoices, 12, "clean", 8, 1, []int64{0, 12, 0}, 0xb65dd62b3ab87f45},
	{TwoChoices, 12, "crashed", 9, 0, []int64{11, 0, 1}, 0x7952615680e22f89},
	{TwoChoices, 12, "loss", 24, 0, []int64{12, 0, 0}, 0x1e7fdcbb34ad492d},
	{Voter, 4, "clean", 8, 2, []int64{0, 0, 4}, 0x158d992fbe4b1261},
	{Voter, 4, "crashed", 2, 0, []int64{3, 0, 1}, 0x2b5667a1daae97c7},
	{Voter, 4, "loss", 6, 2, []int64{0, 0, 4}, 0x60a3063a48cebc1},
	{Voter, 7, "clean", 12, 0, []int64{7, 0, 0}, 0x500384dd0e608046},
	{Voter, 7, "crashed", 10, 1, []int64{1, 5, 1}, 0xd7bb4a7c856c0fc2},
	{Voter, 7, "loss", 2, 0, []int64{7, 0, 0}, 0xeb07c6fd5a5ce826},
	{Voter, 12, "clean", 17, 0, []int64{12, 0, 0}, 0x1a6e4dbc01ede2cb},
	{Voter, 12, "crashed", 28, 2, []int64{1, 0, 11}, 0x8fcaa323eadda405},
	{Voter, 12, "loss", 32, 1, []int64{0, 12, 0}, 0x5d575d0a15d9b47},
}
