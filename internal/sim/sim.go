package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/rng"
)

// Spec describes a batch of independent trials of one dynamics.
type Spec struct {
	// Protocol is the dynamics to run. Required.
	Protocol core.Protocol
	// Init returns the initial configuration for a trial. Trials must
	// not share the returned Vector. Required.
	Init func(trial int) *population.Vector
	// Trials is the number of independent runs; it defaults to 1.
	Trials int
	// Seed is the base seed; trial i uses rng.DeriveSeed(Seed, i).
	Seed uint64
	// MaxRounds bounds each run (0 = core.DefaultMaxRounds).
	MaxRounds int
	// PostRound is forwarded to core.RunConfig (adversaries hook here).
	PostRound func(round int, r *rng.Rand, v *population.Vector)
	// Done is forwarded to core.RunConfig (custom stopping condition).
	Done func(v *population.Vector) bool
	// Observe, if non-nil, constructs a per-trial observer; it runs on
	// the worker goroutine of that trial.
	Observe func(trial int) func(round int, v *population.Vector) bool
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	Trial int
	core.RunResult
}

// ForEachTrialRangeCtx is the deterministic trial scheduler shared by
// every execution mode (the count-space engine here, the façade's
// stream producer and through it the service layer's executors):
// across a pool of parallelism workers (<= 0 means GOMAXPROCS), each
// worker claims a contiguous range [lo, hi) of up to width trials at a
// time (width < 1 means 1) and runs body(lo, hi) once per claim. Index
// scheduling is the width-1 case. Bodies must derive all randomness
// from the absolute trial indices (e.g. rng.DeriveSeed per index), so
// every trial's outcome — and anything the bodies write into per-trial
// slots — is identical for any worker count and any width.
//
// All claimed ranges run even when some fail. Cancellation lands at
// range boundaries: a cancelled context stops workers from claiming
// further ranges, but a claimed range runs to completion (bodies are
// expected to check cancellation per trial themselves when ranges are
// long), so every result produced is a complete, checkpointable trial.
// A panic inside body is recovered into that range's error instead of
// killing the process — a poisoned configuration fails one job, not
// the server. The returned error is that of the lowest-starting
// failing range, or ctx.Err() if cancelled and no range failed. A nil
// ctx never cancels.
func ForEachTrialRangeCtx(ctx context.Context, trials, parallelism, width int, body func(lo, hi int) error) error {
	if trials <= 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	chunks := (trials + width - 1) / width
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	guarded := func(lo, hi int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				if hi-lo == 1 {
					err = fmt.Errorf("sim: trial %d panicked: %v", lo, p)
				} else {
					err = fmt.Errorf("sim: trial range [%d, %d) panicked: %v", lo, hi, p)
				}
			}
		}()
		return body(lo, hi)
	}
	span := func(chunk int) (lo, hi int) {
		lo = chunk * width
		hi = lo + width
		if hi > trials {
			hi = trials
		}
		return lo, hi
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	var firstErr error
	if workers == 1 {
		for chunk := 0; chunk < chunks; chunk++ {
			if cancelled() {
				break
			}
			lo, hi := span(chunk)
			if err := guarded(lo, hi); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr == nil && ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return firstErr
	}
	errs := make([]error, chunks)
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled() {
					return
				}
				chunk := int(atomic.AddInt64(&next, 1))
				if chunk >= chunks {
					return
				}
				lo, hi := span(chunk)
				errs[chunk] = guarded(lo, hi)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// RunMany executes the trials and returns the results indexed by
// trial. Trials are independent: trial i's stream depends only on
// (Seed, i), so results are reproducible regardless of parallelism.
// A panicking trial (e.g. in Init or Observe) panics RunMany with the
// lowest failing trial's error, rather than leaving a zero
// TrialResult in the batch.
func RunMany(spec Spec) []TrialResult {
	if spec.Protocol == nil || spec.Init == nil {
		panic("sim: Spec requires Protocol and Init")
	}
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	results := make([]TrialResult, trials)
	err := ForEachTrialRangeCtx(nil, trials, spec.Parallelism, 1, func(trial, _ int) error {
		r := rng.New(rng.DeriveSeed(spec.Seed, uint64(trial)))
		v := spec.Init(trial)
		cfg := core.RunConfig{
			MaxRounds: spec.MaxRounds,
			PostRound: spec.PostRound,
			Done:      spec.Done,
		}
		if spec.Observe != nil {
			cfg.Observer = spec.Observe(trial)
		}
		res := core.Run(r, spec.Protocol, v, cfg)
		results[trial] = TrialResult{Trial: trial, RunResult: res}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return results
}

// ConsensusTimes extracts the round counts of the trials that reached
// the stopping condition; it errors if any trial failed to converge,
// since a truncated sample would silently bias time statistics.
func ConsensusTimes(results []TrialResult) ([]float64, error) {
	times := make([]float64, 0, len(results))
	for _, res := range results {
		if !res.Consensus {
			return nil, fmt.Errorf("sim: trial %d did not reach the stopping condition within %d rounds", res.Trial, res.Rounds)
		}
		times = append(times, float64(res.Rounds))
	}
	return times, nil
}

// WinnerFractions returns, for each opinion, the fraction of converged
// trials it won.
func WinnerFractions(results []TrialResult, k int) []float64 {
	fracs := make([]float64, k)
	converged := 0
	for _, res := range results {
		if res.Consensus {
			converged++
			if res.Winner >= 0 && res.Winner < k {
				fracs[res.Winner]++
			}
		}
	}
	if converged == 0 {
		return fracs
	}
	for i := range fracs {
		fracs[i] /= float64(converged)
	}
	return fracs
}

// CountConverged returns how many trials reached the stopping condition.
func CountConverged(results []TrialResult) int {
	n := 0
	for _, res := range results {
		if res.Consensus {
			n++
		}
	}
	return n
}

// Trajectory records per-round scalar summaries of one run. Attach
// via Spec.Observe (or core.RunConfig.Observer) and read the slices
// afterwards; entry t corresponds to round t (entry 0 is the initial
// configuration). Recording is cheap relative to the protocol step:
// Gamma and Live read the Vector's O(1) incremental aggregates and
// only MaxOpinion scans, at O(live).
type Trajectory struct {
	// Every controls subsampling: a round is recorded when
	// round % Every == 0 (Every <= 1 records all rounds). The final
	// recorded round is whatever matched last, so pair coarse Every
	// values with hitting-time logic, not last-element reads.
	Every int

	Rounds   []int
	Gamma    []float64
	Live     []int
	MaxAlpha []float64
}

// Observer returns an observer function that appends to the trajectory
// and never stops the run.
func (tr *Trajectory) Observer() func(round int, v *population.Vector) bool {
	every := tr.Every
	if every < 1 {
		every = 1
	}
	return func(round int, v *population.Vector) bool {
		if round%every != 0 {
			return false
		}
		tr.Rounds = append(tr.Rounds, round)
		tr.Gamma = append(tr.Gamma, v.Gamma())
		tr.Live = append(tr.Live, v.Live())
		_, c := v.MaxOpinion()
		tr.MaxAlpha = append(tr.MaxAlpha, float64(c)/float64(v.N()))
		return false
	}
}

// GammaHitTime returns the first recorded round where γ reached the
// threshold, or -1 if it never did.
func (tr *Trajectory) GammaHitTime(threshold float64) int {
	for i, g := range tr.Gamma {
		if g >= threshold {
			return tr.Rounds[i]
		}
	}
	return -1
}
