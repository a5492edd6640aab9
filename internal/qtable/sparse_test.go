package qtable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The tests below drive the sparse (open-addressed row) form of Table
// directly, at sizes small enough to cross-check against the dense form.

func TestSparseBasics(t *testing.T) {
	q := newSparseTable(4)
	if q.Size() != 4 || q.Stored() != 0 {
		t.Fatalf("fresh sparse: size=%d stored=%d", q.Size(), q.Stored())
	}
	q.Set(1, 2, 3.5)
	if q.Get(1, 2) != 3.5 || q.Get(2, 1) != 0 {
		t.Fatal("Get/Set mismatch")
	}
	if q.Stored() != 1 {
		t.Fatalf("stored = %d", q.Stored())
	}
	// Writing zero to an absent cell stores nothing; over a stored cell
	// it reads back as 0.
	q.Set(3, 3, 0)
	q.Set(1, 2, 0)
	if q.Stored() != 1 || q.Get(1, 2) != 0 || q.Get(3, 3) != 0 {
		t.Fatalf("zero writes: stored=%d", q.Stored())
	}
}

func TestSparsePanics(t *testing.T) {
	q := newSparseTable(3)
	for _, fn := range []func(){
		func() { q.Get(3, 0) },
		func() { q.Set(0, -1, 1) },
		func() { q.Update(0, 0, 0.5, 1, 0.9, 3, 0) },
		func() { NewWithDenseMax(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSparseMatchesDenseUpdates(t *testing.T) {
	// The sparse table is behaviorally identical to the dense one under
	// random update/argmax workloads.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		dense := New(n)
		sparse := newSparseTable(n)
		for op := 0; op < 60; op++ {
			s, e := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				v := rng.NormFloat64()
				dense.Set(s, e, v)
				sparse.Set(s, e, v)
			case 1:
				sn, en := rng.Intn(n), rng.Intn(n)
				a, r, g := rng.Float64(), rng.NormFloat64(), rng.Float64()
				if dense.Update(s, e, a, r, g, sn, en) != sparse.Update(s, e, a, r, g, sn, en) {
					return false
				}
			case 2:
				var mask func(int) bool
				if rng.Intn(2) == 0 {
					banned := rng.Intn(n)
					mask = func(a int) bool { return a != banned }
				}
				de, dok := dense.ArgMax(s, mask)
				se, sok := sparse.ArgMax(s, mask)
				if de != se || dok != sok {
					return false
				}
			}
		}
		// Full-table equality at the end.
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if dense.Get(s, e) != sparse.Get(s, e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseArgMaxMatchesDense(t *testing.T) {
	// Dedicated ArgMax equivalence: the sparse form's stored-row scan
	// must agree with the dense scan everywhere, including the cases the fast path special-
	// cases — all-negative rows (where an absent entry's implicit 0 wins),
	// exact positive ties (lowest index wins), fully-populated rows and
	// restrictive masks.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dense := New(n)
		sparse := newSparseTable(n)
		// Values from a small discrete set force frequent exact ties; the
		// negative-leaning mix exercises the absent-beats-stored path.
		vals := []float64{-2, -1, -0.5, 0.5, 1, 2}
		fill := rng.Intn(3) // 0: sparse row, 1: dense-ish, 2: full
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if fill < 2 && rng.Intn(3) != fill {
					continue
				}
				v := vals[rng.Intn(len(vals))]
				dense.Set(s, e, v)
				sparse.Set(s, e, v)
			}
		}
		for trial := 0; trial < 2*n; trial++ {
			s := rng.Intn(n)
			var mask func(int) bool
			switch rng.Intn(3) {
			case 1:
				banned := rng.Intn(n)
				mask = func(a int) bool { return a != banned }
			case 2:
				keep := rng.Intn(n)
				mask = func(a int) bool { return a%(keep+1) == 0 }
			}
			de, dok := dense.ArgMax(s, mask)
			se, sok := sparse.ArgMax(s, mask)
			if de != se || dok != sok {
				t.Logf("n=%d s=%d: dense=(%d,%v) sparse=(%d,%v)", n, s, de, dok, se, sok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSparseUpdate(b *testing.B) {
	q := newSparseTable(1216)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Update(i%1216, (i+1)%1216, 0.75, 1, 0.95, (i+2)%1216, (i+3)%1216)
	}
}

// BenchmarkAblationQStorage contrasts dense and sparse storage on a
// institution-scale table under a SARSA-like access pattern.
func BenchmarkAblationQStorage(b *testing.B) {
	const n = 1216
	b.Run("dense", func(b *testing.B) {
		q := New(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Update(i%n, (i+7)%n, 0.75, 1, 0.95, (i+7)%n, (i+13)%n)
			q.ArgMax(i%n, nil)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		q := newSparseTable(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Update(i%n, (i+7)%n, 0.75, 1, 0.95, (i+7)%n, (i+13)%n)
			q.ArgMax(i%n, nil)
		}
	})
}
