package gossip

import (
	"errors"
	"fmt"

	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/trace"
)

// Rule selects the update rule (Definition 3.1 forms).
type Rule int

// Supported rules.
const (
	ThreeMajority Rule = iota + 1
	TwoChoices
	Voter
)

// samples returns how many pulls the rule needs per round.
func (r Rule) samples() int {
	switch r {
	case ThreeMajority:
		return 3
	case TwoChoices:
		return 2
	case Voter:
		return 1
	default:
		return 0
	}
}

// Name identifies the rule.
func (r Rule) Name() string {
	switch r {
	case ThreeMajority:
		return "gossip-3-majority"
	case TwoChoices:
		return "gossip-2-choices"
	case Voter:
		return "gossip-voter"
	default:
		return "gossip-unknown"
	}
}

// Config describes a gossip network.
type Config struct {
	// N is the number of nodes; required.
	N int
	// Rule is the update rule; required.
	Rule Rule
	// Init supplies the initial opinion counts; required, with
	// Init.N() == N.
	Init *population.Vector
	// Seed roots every node's PRNG stream: node i draws from
	// rng.DeriveSeed(Seed, i), so the run is a function of Seed alone.
	Seed uint64
	// Crashed lists node IDs that are crashed from the start.
	Crashed []int
	// LossProb is the per-pull loss probability in [0, 1).
	LossProb float64
}

// ErrConfig reports invalid gossip configuration.
var ErrConfig = errors.New("gossip: invalid config")

// Network is a gossip system between rounds. Create with New and
// drive with Round or Run.
type Network struct {
	rule     Rule
	loss     float64
	opinions []int32 // round t−1: every pull reads this snapshot
	next     []int32 // round t, written by Round
	crashed  []bool
	rands    []rng.Rand // node i's private stream
	k        int
	closed   bool
}

// New builds a gossip network.
func New(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: N = %d", ErrConfig, cfg.N)
	}
	if cfg.Rule.samples() == 0 {
		return nil, fmt.Errorf("%w: unknown rule", ErrConfig)
	}
	if cfg.Init == nil || cfg.Init.N() != int64(cfg.N) {
		return nil, fmt.Errorf("%w: Init must cover exactly N=%d nodes", ErrConfig, cfg.N)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("%w: LossProb = %v", ErrConfig, cfg.LossProb)
	}
	crashed := make([]bool, cfg.N)
	for _, id := range cfg.Crashed {
		if id < 0 || id >= cfg.N {
			return nil, fmt.Errorf("%w: crashed id %d out of range", ErrConfig, id)
		}
		crashed[id] = true
	}

	nw := &Network{
		rule:     cfg.Rule,
		loss:     cfg.LossProb,
		opinions: make([]int32, 0, cfg.N),
		next:     make([]int32, cfg.N),
		crashed:  crashed,
		rands:    make([]rng.Rand, cfg.N),
		k:        cfg.Init.K(),
	}
	for op := 0; op < cfg.Init.K(); op++ {
		for j := int64(0); j < cfg.Init.Count(op); j++ {
			nw.opinions = append(nw.opinions, int32(op))
		}
	}
	for i := range nw.rands {
		nw.rands[i].Reseed(rng.DeriveSeed(cfg.Seed, uint64(i)))
	}
	return nw, nil
}

// step returns node i's round-t opinion, pulling from the round-(t−1)
// snapshot with node i's own stream. Crashed nodes draw nothing and
// keep their opinion. Each pull draws the loss coin first (only when
// LossProb > 0), then the peer; the first lost pull, or pull of a
// crashed peer, ends the node's round with its opinion unchanged.
func (nw *Network) step(i int) int32 {
	cur := nw.opinions[i]
	if nw.crashed[i] {
		return cur
	}
	r := &nw.rands[i]
	var got [3]int32
	for s := range nw.rule.samples() {
		if nw.loss > 0 && r.Bernoulli(nw.loss) {
			return cur
		}
		peer := r.Intn(len(nw.opinions))
		if nw.crashed[peer] {
			return cur
		}
		got[s] = nw.opinions[peer]
	}
	switch nw.rule {
	case ThreeMajority:
		if got[0] == got[1] {
			return got[0]
		}
		return got[2]
	case TwoChoices:
		if got[0] == got[1] {
			return got[0]
		}
		return cur
	default: // Voter
		return got[0]
	}
}

// Round executes one synchronous round and returns the updated counts.
// Every node reads only round t−1, and all adopt round t together when
// the two snapshots swap: Definition 3.1's synchronous update.
func (nw *Network) Round() *population.Vector {
	if nw.closed {
		panic("gossip: Round after Close")
	}
	for i := range nw.next {
		nw.next[i] = nw.step(i)
	}
	nw.opinions, nw.next = nw.next, nw.opinions
	return nw.Counts()
}

// Counts returns the opinion counts (valid between rounds).
func (nw *Network) Counts() *population.Vector {
	counts := make([]int64, nw.k)
	for _, op := range nw.opinions {
		counts[op]++
	}
	v, err := population.FromCounts(counts)
	if err != nil {
		panic(fmt.Sprintf("gossip: invalid counts: %v", err))
	}
	return v
}

// AliveConsensus reports whether all non-crashed nodes agree, and on
// what. Crashed nodes are frozen and excluded.
func (nw *Network) AliveConsensus() (opinion int32, ok bool) {
	first := int32(-1)
	for id, op := range nw.opinions {
		if nw.crashed[id] {
			continue
		}
		if first == -1 {
			first = op
			continue
		}
		if op != first {
			return 0, false
		}
	}
	if first == -1 {
		return 0, false // everyone crashed
	}
	return first, true
}

// Result reports how a gossip run ended. Gamma and Live are the final
// potential Γ = Σ α² and live-opinion count over the full population,
// crashed (frozen) nodes included — so they can stay below 1 and
// above 1 respectively even at alive-consensus.
type Result struct {
	Rounds    int
	Consensus bool
	Winner    int32
	Gamma     float64
	Live      int
}

// Run executes rounds until all alive nodes agree or maxRounds.
//
// tr, if non-nil, samples the opinion counts between rounds. A nil tr
// costs one pointer test per round; kept rounds reuse the counts Round
// materializes anyway, so tracing adds only the O(live) observable
// reads.
//
// stop, if non-nil, is evaluated on the same counts between rounds
// (and at round 0 before any pull), and a true return ends the run
// there. The hook reads only the counts — node PRNG streams are
// untouched — so a stopped run is byte-for-byte the prefix of the
// unstopped run of the same seed.
func (nw *Network) Run(maxRounds int, tr *trace.Sampler, stop func(round int64, v *population.Vector) bool) Result {
	finish := func(rounds int, consensus bool, winner int32, v *population.Vector) Result {
		if v == nil {
			v = nw.Counts()
		}
		return Result{Rounds: rounds, Consensus: consensus, Winner: winner, Gamma: v.Gamma(), Live: v.Live()}
	}
	if stop != nil || tr.Wants(0) {
		// One shared materialisation for the sampler and the stop hook.
		v := nw.Counts()
		tr.Observe(0, v)
		if stop != nil && stop(0, v) {
			if op, ok := nw.AliveConsensus(); ok {
				return finish(0, true, op, v)
			}
			op, _ := v.MaxOpinion()
			return finish(0, false, int32(op), v)
		}
	}
	if op, ok := nw.AliveConsensus(); ok {
		return finish(0, true, op, nil)
	}
	for t := 1; t <= maxRounds; t++ {
		// Round already materializes the post-swap counts; reuse them
		// rather than paying the O(n + k) scan twice on kept rounds.
		v := nw.Round()
		if tr.Wants(int64(t)) {
			tr.Observe(int64(t), v)
		}
		// Stop hook before the consensus test, like every engine: a
		// condition first holding at the consensus round still
		// observes the stop, and the result stays the consensus one.
		if stop != nil && stop(int64(t), v) {
			if op, ok := nw.AliveConsensus(); ok {
				return finish(t, true, op, v)
			}
			op, _ := v.MaxOpinion()
			return finish(t, false, int32(op), v)
		}
		if op, ok := nw.AliveConsensus(); ok {
			return finish(t, true, op, v)
		}
	}
	v := nw.Counts()
	op, _ := v.MaxOpinion()
	return finish(maxRounds, false, int32(op), v)
}

// Close ends the network: a later Round panics. It holds no
// resources and is idempotent.
func (nw *Network) Close() {
	nw.closed = true
}
