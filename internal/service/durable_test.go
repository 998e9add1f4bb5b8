package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plurality/internal/durable"
)

func openTestStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	s, err := durable.Open(durable.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func respBytes(t *testing.T, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSONLine(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartServesFromDisk: a result computed before a restart is
// served from the durable cache by the next process — byte-identical,
// with zero executions.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(31)
	ctx := context.Background()

	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store})
	cold, _, err := r.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	store.Close()

	// "Restart": fresh store, fresh runner, same data dir.
	store2 := openTestStore(t, dir)
	defer store2.Close()
	if rec := store2.Recovered(); rec.CompletedKeys != 1 || len(rec.Interrupted) != 0 {
		t.Fatalf("recovery after clean shutdown: %+v", rec)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	defer r2.Close()
	warm, cached, err := r2.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("restarted runner re-simulated a completed request")
	}
	m := r2.Metrics()
	if m.Executions != 0 || m.DiskHits != 1 {
		t.Fatalf("metrics after disk hit: %+v", m)
	}
	if !bytes.Equal(respBytes(t, cold), respBytes(t, warm)) {
		t.Fatal("disk-served response differs from the computed one")
	}

	// The second lookup of the same key comes from the LRU, not disk.
	if _, cached, err := r2.Do(ctx, req); err != nil || !cached {
		t.Fatalf("LRU readthrough: cached=%v err=%v", cached, err)
	}
	if m := r2.Metrics(); m.DiskHits != 1 {
		t.Fatalf("DiskHits after LRU hit = %d, want still 1", m.DiskHits)
	}
}

// TestDrainInterruptsAndRestartResumes is the end-to-end durability
// path: a job checkpoints, the runner drains (503 for new work, the
// job interrupted — not failed), and a restarted runner re-queues it,
// resumes from the checkpoint, and completes byte-identical to an
// uninterrupted run.
func TestDrainInterruptsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	req := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 77, Trials: 5}
	want, err := ExecuteParallel(req.Normalize(), 1)
	if err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store})
	running := make(chan struct{})
	r.exec = func(ctx context.Context, q Request, _ int, _ *ResumeState, _ int, onCheckpoint func(ResumeState)) (*Response, error) {
		// Two trials done, then the job parks until drain cancels it.
		onCheckpoint(ResumeState{NextTrial: 2, Trials: want.Trials[:2]})
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	job, _, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-running

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	go func() {
		// Reject-while-draining is checked from here, with the job
		// still parked.
		for !r.isDraining() {
			time.Sleep(time.Millisecond)
		}
	}()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := r.Do(context.Background(), testRequest(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission after drain: err = %v, want ErrDraining", err)
	}
	if info := job.Snapshot(); info.Status != StatusFailed || !strings.Contains(info.Error, "draining") {
		t.Fatalf("interrupted job snapshot: %+v", info)
	}
	store.Close()

	// Restart. The job must come back, resume at trial 2, and finish.
	store2 := openTestStore(t, dir)
	rec := store2.Recovered()
	if len(rec.Interrupted) != 1 || rec.Interrupted[0].Key != req.Normalize().Key() {
		t.Fatalf("restart recovery: %+v", rec)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	got, _, err := r2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m := r2.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	var wantBuf bytes.Buffer
	if err := EncodeJSONLine(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respBytes(t, got), wantBuf.Bytes()) {
		t.Fatalf("resumed response diverged:\n got %s\nwant %s", respBytes(t, got), wantBuf.Bytes())
	}
	r2.Close()
	store2.Close()

	// The journal must show the resumed attempt continuing the count
	// (attempt 2 after the pre-restart attempt 1) — proof the restart
	// carried the job's state rather than starting a twin.
	_, records, _, err := durable.OpenJournal(durable.OSFS{}, filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	maxAttempt := 0
	for _, rec := range records {
		if rec.Op == durable.OpStarted && rec.Attempt > maxAttempt {
			maxAttempt = rec.Attempt
		}
	}
	if maxAttempt != 2 {
		t.Fatalf("max journaled attempt = %d, want 2", maxAttempt)
	}
}

// TestRetryResumesFromCheckpoint: a failing attempt's checkpoint feeds
// the retry — completed trials are not re-run.
func TestRetryResumesFromCheckpoint(t *testing.T) {
	r := NewRunner(Options{Workers: 1, MaxAttempts: 2, RetryBaseDelay: time.Microsecond})
	defer r.Close()
	var attempt atomic.Int32
	var resumedFrom atomic.Int32
	r.exec = func(ctx context.Context, q Request, p int, resume *ResumeState, every int, onCheckpoint func(ResumeState)) (*Response, error) {
		if attempt.Add(1) == 1 {
			full, err := ExecuteParallel(q, p)
			if err != nil {
				return nil, err
			}
			onCheckpoint(ResumeState{NextTrial: 2, Trials: full.Trials[:2]})
			return nil, fmt.Errorf("transient fault")
		}
		if resume != nil {
			resumedFrom.Store(int32(resume.NextTrial))
		}
		return ExecuteResumable(ctx, q, p, resume, every, onCheckpoint)
	}
	req := Request{Protocol: "3-majority", N: 1000, K: 4, Seed: 9, Trials: 4}
	got, _, err := r.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := resumedFrom.Load(); n != 2 {
		t.Fatalf("retry resumed from trial %d, want 2", n)
	}
	if m := r.Metrics(); m.Retries != 1 || m.Executions != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	want, err := ExecuteParallel(req.Normalize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respBytes(t, got), respBytes(t, want)) {
		t.Fatal("checkpoint-fed retry diverged from a clean run")
	}
}

// TestTerminalFailureAfterBudget: once the attempt budget is spent the
// job fails terminally — journaled as failed, never re-queued by a
// restart.
func TestTerminalFailureAfterBudget(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	r := NewRunner(Options{Workers: 1, Store: store, MaxAttempts: 3, RetryBaseDelay: time.Microsecond})
	var attempts atomic.Int32
	r.exec = func(_ context.Context, q Request, _ int, _ *ResumeState, _ int, _ func(ResumeState)) (*Response, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("boom")
	}
	_, _, err := r.Do(context.Background(), testRequest(5))
	if err == nil || err.Error() != "boom" {
		t.Fatalf("terminal error = %v, want boom", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}
	if m := r.Metrics(); m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
	r.Close()
	store.Close()

	store2 := openTestStore(t, dir)
	defer store2.Close()
	rec := store2.Recovered()
	if len(rec.Interrupted) != 0 {
		t.Fatalf("terminally failed job re-queued: %+v", rec.Interrupted)
	}
	r2 := NewRunner(Options{Workers: 1, Store: store2})
	defer r2.Close()
	if m := r2.Metrics(); m.Recovered != 0 {
		t.Fatalf("Recovered = %d, want 0", m.Recovered)
	}
}

// TestJobTimeoutFailsTerminally: an attempt that exceeds JobTimeout is
// cancelled and, with no budget left, fails with a timeout error.
func TestJobTimeoutFailsTerminally(t *testing.T) {
	r := NewRunner(Options{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer r.Close()
	r.exec = func(ctx context.Context, _ Request, _ int, _ *ResumeState, _ int, _ func(ResumeState)) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, _, err := r.Do(context.Background(), testRequest(6))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout failure", err)
	}
}

// TestWorkerSurvivesExecPanic: a panic escaping the executor fails the
// job (journaled) and the worker keeps serving.
func TestWorkerSurvivesExecPanic(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	defer store.Close()
	r := NewRunner(Options{Workers: 1, Store: store})
	defer r.Close()
	real := r.exec
	var calls atomic.Int32
	r.exec = func(ctx context.Context, q Request, p int, rs *ResumeState, every int, cb func(ResumeState)) (*Response, error) {
		if calls.Add(1) == 1 {
			panic("poisoned request")
		}
		return real(ctx, q, p, rs, every, cb)
	}
	_, _, err := r.Do(context.Background(), testRequest(8))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a contained panic", err)
	}
	// The same worker must still be alive for the next job.
	if _, _, err := r.Do(context.Background(), testRequest(9)); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
}

// TestCancelledWaiterDetaches is the dedup-waiter regression: a waiter
// that joined an in-flight job and then cancelled its context detaches
// promptly, without failing the shared job or resubmitting it.
func TestCancelledWaiterDetaches(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 4})
	defer r.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ResumeState, _ int, _ func(ResumeState)) (*Response, error) {
		close(started)
		<-release
		return Execute(q)
	}

	first := make(chan error, 1)
	go func() {
		_, _, err := r.Do(context.Background(), testRequest(3))
		first <- err
	}()
	<-started

	// Second waiter joins the in-flight job, then cancels.
	wctx, wcancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, err := r.Do(wctx, testRequest(3))
		second <- err
	}()
	// Let it join before cancelling.
	for r.Metrics().Joined == 0 {
		time.Sleep(time.Millisecond)
	}
	wcancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not detach")
	}

	// The shared job is unharmed: the original waiter completes.
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("shared job failed after waiter cancel: %v", err)
	}
	m := r.Metrics()
	if m.Executions != 1 {
		t.Fatalf("waiter cancellation re-ran the job: %+v", m)
	}
	if m.JobsInFlight != 0 {
		t.Fatalf("leaked in-flight job: %+v", m)
	}
}

// TestCancelledWaiterDoesNotResubmitAbandonedJob: a waiter whose ctx
// died while it was joined to a job that was then abandoned must not
// admit a fresh job nobody waits for.
func TestCancelledWaiterDoesNotResubmitAbandonedJob(t *testing.T) {
	r := NewRunner(Options{Workers: 1, QueueDepth: 1})
	defer r.Close()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r.exec = func(_ context.Context, q Request, _ int, _ *ResumeState, _ int, _ func(ResumeState)) (*Response, error) {
		started <- struct{}{}
		<-release
		return Execute(q)
	}
	// Fill the worker and the queue.
	go r.Do(context.Background(), testRequest(100))
	<-started
	go r.Do(context.Background(), testRequest(101))
	for len(r.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	// A blocking submitter parks on the full queue...
	bctx, bcancel := context.WithCancel(context.Background())
	blockedErr := make(chan error, 1)
	go func() {
		_, _, err := r.DoWait(bctx, testRequest(102))
		blockedErr <- err
	}()
	// (its job must be registered before the joiner arrives, or the
	// joiner submits 102 itself and fails fast on the full queue)
	for r.Metrics().JobsInFlight < 3 {
		time.Sleep(time.Millisecond)
	}
	// ...and a second waiter dedup-joins the parked job.
	wctx, wcancel := context.WithCancel(context.Background())
	joinedErr := make(chan error, 1)
	go func() {
		_, _, err := r.Do(wctx, testRequest(102))
		joinedErr <- err
	}()
	for r.Metrics().Joined == 0 {
		time.Sleep(time.Millisecond)
	}

	// Kill both: the submitter abandons the job; the joined waiter's
	// ctx is already dead when it sees the abandonment.
	wcancel()
	bcancel()
	if err := <-blockedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submitter: %v", err)
	}
	if err := <-joinedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("joined waiter: %v", err)
	}

	requests := r.Metrics().Requests
	close(release)
	// Drain the two live jobs; no third execution may appear.
	for r.Metrics().JobsInFlight > 0 {
		time.Sleep(time.Millisecond)
	}
	if m := r.Metrics(); m.Requests != requests || m.Executions > 2 {
		t.Fatalf("cancelled waiter resubmitted: %+v", m)
	}
}

// TestBackoffDelayRange pins the retry backoff shape: exponential in
// the attempt, jittered in [d/2, 3d/2), never above the cap.
func TestBackoffDelayRange(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for next := 2; next <= 10; next++ {
		d := base
		for i := 2; i < next && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
		for i := 0; i < 50; i++ {
			got := backoffDelay(next, base, max)
			if got < d/2 || got > max || (d < max && got >= d+d/2) {
				t.Fatalf("attempt %d: delay %v outside [%v, min(%v, %v))", next, got, d/2, d+d/2, max)
			}
		}
	}
}

// TestResumeStateJSONRoundTrip: the checkpoint payload the journal
// stores decodes back to the same state.
func TestResumeStateJSONRoundTrip(t *testing.T) {
	ticks := int64(42)
	rs := ResumeState{NextTrial: 2, Trials: []Trial{
		{Trial: 0, Rounds: 10, Consensus: true, Winner: 1},
		{Trial: 1, Rounds: 3.5, Winner: 2, Ticks: &ticks},
	}}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeResume(data)
	if got == nil || got.NextTrial != 2 || len(got.Trials) != 2 || *got.Trials[1].Ticks != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	if decodeResume([]byte("{broken")) != nil {
		t.Fatal("corrupt checkpoint not rejected")
	}
	if decodeResume(nil) != nil {
		t.Fatal("empty checkpoint not nil")
	}
}
