package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachTrialRangeCoversEveryTrialOnce: for every (parallelism,
// width) shape, the claimed ranges partition [0, trials) — each index
// visited exactly once, every range non-empty, contiguous, and at most
// width wide. Width 1 is index scheduling.
func TestForEachTrialRangeCoversEveryTrialOnce(t *testing.T) {
	const trials = 57
	for _, parallelism := range []int{1, 3, 0, 100} {
		for _, width := range []int{1, 3, 4, 8, 57, 64, 1000, 0, -2} {
			var calls [trials]atomic.Int32
			err := ForEachTrialRangeCtx(nil, trials, parallelism, width, func(lo, hi int) error {
				if lo >= hi {
					return fmt.Errorf("empty range [%d, %d)", lo, hi)
				}
				if w := max(width, 1); hi-lo > w {
					return fmt.Errorf("range [%d, %d) wider than %d", lo, hi, w)
				}
				for i := lo; i < hi; i++ {
					calls[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("parallelism %d width %d: %v", parallelism, width, err)
			}
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("parallelism %d width %d: trial %d ran %d times", parallelism, width, i, n)
				}
			}
		}
	}
}

// TestForEachTrialRangeReturnsLowestRangeError pins deterministic
// error reporting across schedules: the caller sees the error of the
// lowest-starting failing range, and — a nil ctx never cancelling —
// every range still runs to completion.
func TestForEachTrialRangeReturnsLowestRangeError(t *testing.T) {
	sentinel := errors.New("sentinel")
	const trials = 40
	for _, parallelism := range []int{1, 3, 4} {
		for _, width := range []int{1, 3, 4, 64} {
			var calls [trials]atomic.Int32
			err := ForEachTrialRangeCtx(nil, trials, parallelism, width, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					calls[i].Add(1)
				}
				for i := lo; i < hi; i++ {
					switch i {
					case 7:
						return sentinel
					case 23:
						return errors.New("late error")
					}
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("parallelism %d width %d: got %v, want the trial-7 sentinel", parallelism, width, err)
			}
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("parallelism %d width %d: trial %d ran %d times", parallelism, width, i, n)
				}
			}
		}
	}
}

// TestForEachTrialRangePanicBecomesError: a panicking body is
// recovered into that range's error instead of crashing the scheduler;
// the lowest panicking range is reported (a width-1 range by its trial
// index) and every other range still runs.
func TestForEachTrialRangePanicBecomesError(t *testing.T) {
	const trials = 9
	for _, parallelism := range []int{1, 4} {
		for _, tc := range []struct {
			width int
			want  string
		}{
			{1, "sim: trial 3 panicked: poisoned trial 3"},
			{3, "sim: trial range [3, 6) panicked: poisoned trial 3"},
			{5, "sim: trial range [0, 5) panicked: poisoned trial 3"},
			{64, "sim: trial range [0, 9) panicked: poisoned trial 3"},
		} {
			var claims [trials]atomic.Int32
			err := ForEachTrialRangeCtx(nil, trials, parallelism, tc.width, func(lo, hi int) error {
				claims[lo].Add(1)
				for i := lo; i < hi; i++ {
					if i == 3 || i == 6 {
						panic(fmt.Sprintf("poisoned trial %d", i))
					}
				}
				return nil
			})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("parallelism %d width %d: err = %v, want %q", parallelism, tc.width, err, tc.want)
			}
			for lo := 0; lo < trials; lo += tc.width {
				if n := claims[lo].Load(); n != 1 {
					t.Fatalf("parallelism %d width %d: range at %d ran %d times", parallelism, tc.width, lo, n)
				}
			}
		}
	}
}

// TestForEachTrialRangeCancellation: a cancelled context stops further
// claims and surfaces ctx.Err() when no range failed. Only a range
// claimed before cancel() returned may still run after it — at most
// one per other worker. (Counting ranges after the fifth body instead
// would also count those that run while cancel() is still in flight.)
func TestForEachTrialRangeCancellation(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		for _, width := range []int{1, 2, 3, 64} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran, late atomic.Int32
			err := ForEachTrialRangeCtx(ctx, 1000, parallelism, width, func(lo, hi int) error {
				if ctx.Err() != nil {
					late.Add(1)
				}
				if ran.Add(1) == 5 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism %d width %d: err = %v, want context.Canceled", parallelism, width, err)
			}
			if n := late.Load(); int(n) > parallelism-1 {
				t.Fatalf("parallelism %d width %d: %d ranges started after cancel", parallelism, width, n)
			}
			if n := ran.Load(); n < 5 {
				t.Fatalf("parallelism %d width %d: only %d ranges ran before cancel at 5", parallelism, width, n)
			}
		}
	}
}

// TestForEachTrialRangeNoTrials: empty inputs run nothing.
func TestForEachTrialRangeNoTrials(t *testing.T) {
	body := func(int, int) error { return errors.New("must not run") }
	for _, parallelism := range []int{1, 4} {
		for _, width := range []int{1, 3, 8, 64} {
			if err := ForEachTrialRangeCtx(nil, 0, parallelism, width, body); err != nil {
				t.Fatal(err)
			}
			if err := ForEachTrialRangeCtx(nil, -3, parallelism, width, body); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Index scheduling is the range scheduler at width 1. The tests below
// pin that special case on its own, with the inputs the per-index
// scheduler was first tested with.

// forEachIndex runs body once per trial index through width-1 ranges.
func forEachIndex(ctx context.Context, trials, parallelism int, body func(trial int) error) error {
	return ForEachTrialRangeCtx(ctx, trials, parallelism, 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestForEachTrialRunsEveryTrialOnce: each trial index is handed to
// exactly one body call, for serial and parallel worker counts alike.
func TestForEachTrialRunsEveryTrialOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3, 0, 100} {
		const trials = 57
		var calls [trials]atomic.Int32
		err := forEachIndex(nil, trials, parallelism, func(trial int) error {
			calls[trial].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: trial %d ran %d times", parallelism, i, n)
			}
		}
	}
}

// TestForEachTrialReturnsLowestIndexError: whichever worker finishes
// first, the caller sees the error of the lowest failing trial.
func TestForEachTrialReturnsLowestIndexError(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, parallelism := range []int{1, 4} {
		err := forEachIndex(nil, 40, parallelism, func(trial int) error {
			switch trial {
			case 7:
				return sentinel
			case 23:
				return errors.New("late error")
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallelism %d: got %v, want the trial-7 sentinel", parallelism, err)
		}
	}
}

func TestForEachTrialNoTrials(t *testing.T) {
	if err := forEachIndex(nil, 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if err := forEachIndex(nil, -3, 1, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachTrialCtxRecoversPanics: a panicking trial becomes that
// trial's error (lowest index reported) and every other trial still
// runs.
func TestForEachTrialCtxRecoversPanics(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		const trials = 9
		var calls [trials]atomic.Int32
		err := forEachIndex(nil, trials, parallelism, func(trial int) error {
			calls[trial].Add(1)
			if trial == 3 || trial == 6 {
				panic(fmt.Sprintf("poisoned trial %d", trial))
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "trial 3 panicked") {
			t.Fatalf("parallelism %d: err = %v, want trial 3's panic", parallelism, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: trial %d ran %d times", parallelism, i, n)
			}
		}
	}
}

// TestForEachTrialCtxStopsClaimingOnCancel: after the context fires no
// new trial starts, trials already claimed finish, and the call
// reports ctx.Err(). A trial that starts after cancel() returned must
// have been claimed before it: at most one per other worker.
func TestForEachTrialCtxStopsClaimingOnCancel(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		const trials = 1000
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int32
		err := forEachIndex(ctx, trials, parallelism, func(trial int) error {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
		if n := late.Load(); int(n) > parallelism-1 {
			t.Fatalf("parallelism %d: %d trials started after cancel", parallelism, n)
		}
		if n := ran.Load(); n < 5 || n == trials {
			t.Fatalf("parallelism %d: %d trials ran with a cancel at 5", parallelism, n)
		}
	}
}

// TestForEachTrialCtxNilContextMatchesForEachTrial: with no context
// every trial runs to completion even after one fails.
func TestForEachTrialCtxNilContextMatchesForEachTrial(t *testing.T) {
	const trials = 20
	var calls [trials]atomic.Int32
	sentinel := errors.New("sentinel")
	err := forEachIndex(nil, trials, 3, func(trial int) error {
		calls[trial].Add(1)
		if trial == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("trial %d ran %d times", i, n)
		}
	}
}
