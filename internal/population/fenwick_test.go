package population

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

func TestFenwickBasics(t *testing.T) {
	counts := []int64{3, 0, 5, 2}
	f := NewFenwick(counts)
	if f.K() != 4 || f.Total() != 10 {
		t.Fatalf("K=%d Total=%d", f.K(), f.Total())
	}
	for i, c := range counts {
		if f.Count(i) != c {
			t.Fatalf("Count(%d) = %d, want %d", i, f.Count(i), c)
		}
	}
	f.Add(1, 4)
	f.Add(2, -5)
	if f.Total() != 9 || f.Count(1) != 4 || f.Count(2) != 0 {
		t.Fatalf("after updates: total=%d counts=%v", f.Total(), f.Counts())
	}
	f.Move(3, 0)
	if f.Count(3) != 1 || f.Count(0) != 4 || f.Total() != 9 {
		t.Fatalf("after move: %v", f.Counts())
	}
	f.Move(0, 0) // no-op
	if f.Count(0) != 4 {
		t.Fatal("self-move changed counts")
	}
}

func TestFenwickPanics(t *testing.T) {
	t.Run("negative build", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewFenwick([]int64{1, -1})
	})
	t.Run("zero total", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewFenwick([]int64{0, 0})
	})
	t.Run("negative after add", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		f := NewFenwick([]int64{1, 1})
		f.Add(0, -2)
	})
}

func TestFenwickSampleDistribution(t *testing.T) {
	counts := []int64{10, 0, 30, 60}
	f := NewFenwick(counts)
	r := rng.New(42)
	const trials = 200000
	hist := make([]int, len(counts))
	for i := 0; i < trials; i++ {
		hist[f.Sample(r)]++
	}
	if hist[1] != 0 {
		t.Fatalf("zero-count opinion sampled %d times", hist[1])
	}
	for i, c := range counts {
		want := float64(c) / 100
		got := float64(hist[i]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("opinion %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestFenwickSampleAfterUpdates(t *testing.T) {
	f := NewFenwick([]int64{5, 5})
	f.Add(0, -5) // all mass on opinion 1
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		if got := f.Sample(r); got != 1 {
			t.Fatalf("Sample = %d, want 1", got)
		}
	}
}

func TestFenwickMatchesLinearScanProperty(t *testing.T) {
	// Property: for random count vectors and random updates, tree
	// prefix queries implied by Sample agree with the plain counts.
	f := func(raw []uint8, updates []uint16) bool {
		counts := make([]int64, 0, len(raw)+1)
		var total int64
		for _, x := range raw {
			counts = append(counts, int64(x))
			total += int64(x)
		}
		if total == 0 {
			counts = append(counts, 1)
		}
		fw := NewFenwick(counts)
		for _, u := range updates {
			i := int(u) % len(counts)
			if fw.Count(i) > 0 && u%2 == 0 {
				fw.Add(i, -1)
			} else {
				fw.Add(i, 1)
			}
			if fw.Total() == 0 {
				fw.Add(i, 1)
			}
		}
		got := fw.Counts()
		var sum int64
		for _, c := range got {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == fw.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFenwickVector(t *testing.T) {
	f := NewFenwick([]int64{2, 3})
	v := f.Vector()
	if v.N() != 5 || v.Count(1) != 3 {
		t.Fatalf("Vector = %v", v.Counts())
	}
	// The materialized vector must be independent of the tree.
	f.Add(0, 1)
	if v.Count(0) != 2 {
		t.Fatal("Vector shares storage with Fenwick")
	}
}

func TestFenwickSingleOpinion(t *testing.T) {
	f := NewFenwick([]int64{7})
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		if got := f.Sample(r); got != 0 {
			t.Fatalf("Sample = %d", got)
		}
	}
}

// linearPick is the reference for Fenwick.search: the opinion whose
// prefix range [c(0)+…+c(i-1), c(0)+…+c(i)) contains target.
func linearPick(counts []int64, target int64) int {
	for i, c := range counts {
		if target < c {
			return i
		}
		target -= c
	}
	panic("linearPick: target beyond total")
}

// checkFenwick compares the descent with a linear prefix scan (every
// target when the total is small, a spread of them otherwise) and the
// incrementally updated tree with a fresh build over the same counts.
func checkFenwick(t *testing.T, stage string, fw *Fenwick) {
	t.Helper()
	counts := fw.Counts()
	step := fw.Total()/4096 + 1
	for target := int64(0); target < fw.Total(); target += step {
		if got, want := fw.search(target), linearPick(counts, target); got != want {
			t.Fatalf("%s: search(%d) = %d, linear scan %d (counts %v)", stage, target, got, want, counts)
		}
	}
	if got, want := fw.search(fw.Total()-1), linearPick(counts, fw.Total()-1); got != want {
		t.Fatalf("%s: search(total-1) = %d, linear scan %d (counts %v)", stage, got, want, counts)
	}
	fresh := NewFenwick(counts)
	if !slices.Equal(fw.tree, fresh.tree) || fw.Total() != fresh.Total() {
		t.Fatalf("%s: incremental tree %v (total %d), fresh build %v (total %d)", stage, fw.tree, fw.Total(), fresh.tree, fresh.Total())
	}
}

// FuzzFenwickSample checks that the padded branch-free descent picks
// the same opinion as a linear prefix scan for the same draw: over
// byte-derived counts with zeros (k = len(raw), so k = 1 and k not a
// power of two both occur), after random Add/Move updates, along a run
// of without-replacement decrements, and after a Reset onto fewer
// slots.
func FuzzFenwickSample(f *testing.F) {
	f.Add(uint64(1), []byte{7}, []byte{0, 1, 2})
	f.Add(uint64(2), []byte{3, 0, 5}, []byte{3, 4, 5, 6})
	f.Add(uint64(3), []byte{0, 0, 9, 0, 1}, []byte{1, 1, 1})
	f.Add(uint64(4), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{})
	f.Add(uint64(5), []byte{200, 0, 0, 0, 0, 0, 0, 0, 0, 13, 0, 255}, []byte{9, 200, 31, 77})
	f.Fuzz(func(t *testing.T, seed uint64, raw, ops []byte) {
		if len(raw) == 0 || len(raw) > 300 || len(ops) > 200 {
			t.Skip()
		}
		counts := make([]int64, len(raw))
		var total int64
		for i, b := range raw {
			if b%4 != 0 { // a quarter of the slots stay empty
				counts[i] = int64(b)
			}
			total += counts[i]
		}
		if total == 0 {
			counts[int(seed%uint64(len(counts)))] = 1
		}
		fw := NewFenwick(counts)
		checkFenwick(t, "build", fw)

		r := rng.New(seed)
		for _, op := range ops {
			i := r.Intn(fw.K())
			switch op % 3 {
			case 0:
				fw.Add(i, int64(op))
			case 1:
				if d := min(fw.Count(i), int64(op)); d < fw.Total() {
					fw.Add(i, -d)
				}
			case 2:
				if fw.Count(i) > 0 {
					fw.Move(i, r.Intn(fw.K()))
				}
			}
		}
		checkFenwick(t, "updates", fw)

		// Weighted sampling without replacement, as the flat 2-Choices
		// kernel runs it: one draw per pick, then a decrement.
		picks, draws := rng.New(seed+1), rng.New(seed+1)
		for pick := 0; pick < 64 && fw.Total() > 1; pick++ {
			want := linearPick(fw.Counts(), draws.Int63n(fw.Total()))
			got := fw.Sample(picks)
			if got != want {
				t.Fatalf("pick %d: Sample = %d, linear scan of the same draw %d", pick, got, want)
			}
			fw.Add(got, -1)
		}
		checkFenwick(t, "decrements", fw)

		// Reset reuses the buffers of a tree at least as large, as the
		// flat kernel does after compacting its slots; stale sums must
		// not survive in the padding.
		if prefix := counts[:len(counts)/2+1]; slices.ContainsFunc(prefix, func(c int64) bool { return c > 0 }) {
			fw.Reset(prefix)
			checkFenwick(t, "reset", fw)
		}
	})
}

// BenchmarkFenwickSample times one Sample (draw plus descent) at the
// async agent-modes shape (k = 8), a padded small k, and large k.
func BenchmarkFenwickSample(b *testing.B) {
	for _, k := range []int{3, 8, 1000, 100000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			counts := make([]int64, k)
			for i := range counts {
				counts[i] = int64(i%13 + 1)
			}
			f := NewFenwick(counts)
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += f.Sample(r)
			}
			fenwickSink = sink
		})
	}
}

// fenwickSink keeps BenchmarkFenwickSample's picks observable, so the
// compiler cannot drop the measured calls.
var fenwickSink int
