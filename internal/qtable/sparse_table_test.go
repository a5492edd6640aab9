package qtable

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// newSparseTable forces the sparse representation regardless of n, so
// small catalogs (cheap to cross-check against dense) exercise exactly
// the code path 100k-item catalogs run.
func newSparseTable(n int) *Table {
	return &Table{n: n, rows: make([]oaRow, n)}
}

// TestSparseTableOpEquivalence drives a dense and a forced-sparse table
// through the same random mutation sequence — Set (including explicit
// zeros), SARSA Update chains, Delta merges at α=1 and fractional α,
// Fill(0), Clone — and demands bit-identical reads after every batch.
// This is the property behind the ≤ dense-threshold guarantee: the
// representations are interchangeable, not merely approximately equal.
func TestSparseTableOpEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dense := New(n)
		sparse := newSparseTable(n)
		if dense.IsDense() != true || sparse.IsDense() != false {
			t.Log("representation selection broken")
			return false
		}
		vals := []float64{-2, -1, 0, 0.5, 1, 3}
		check := func(stage string) bool {
			for s := 0; s < n; s++ {
				for e := 0; e < n; e++ {
					if dv, sv := dense.Get(s, e), sparse.Get(s, e); dv != sv {
						t.Logf("%s: Get(%d,%d) dense=%v sparse=%v", stage, s, e, dv, sv)
						return false
					}
				}
			}
			if dm, sm := dense.MaxAbs(), sparse.MaxAbs(); dm != sm {
				t.Logf("%s: MaxAbs dense=%v sparse=%v", stage, dm, sm)
				return false
			}
			return true
		}
		for batch := 0; batch < 4; batch++ {
			switch rng.Intn(5) {
			case 0: // random Sets, zeros included
				for i := 0; i < 2*n; i++ {
					s, e, v := rng.Intn(n), rng.Intn(n), vals[rng.Intn(len(vals))]
					dense.Set(s, e, v)
					sparse.Set(s, e, v)
				}
			case 1: // SARSA update chain with bootstrap reads
				for i := 0; i < 2*n; i++ {
					s, e := rng.Intn(n), rng.Intn(n)
					sn, en := rng.Intn(n), rng.Intn(n)
					r := vals[rng.Intn(len(vals))]
					dv := dense.Update(s, e, 0.25, r, 0.9, sn, en)
					sv := sparse.Update(s, e, 0.25, r, 0.9, sn, en)
					if dv != sv {
						t.Logf("Update(%d,%d) dense=%v sparse=%v", s, e, dv, sv)
						return false
					}
				}
			case 2: // delta merge, mixed alphas
				d := NewDelta(n)
				for i := 0; i < n+1; i++ {
					d.Record(rng.Intn(n), rng.Intn(n), vals[rng.Intn(len(vals))])
				}
				alpha := []float64{1, 0.5}[rng.Intn(2)]
				dense.Merge(d, alpha)
				sparse.Merge(d, alpha)
			case 3: // clone, keep mutating the clone
				dense, sparse = dense.Clone(), sparse.Clone()
				if sparse.IsDense() {
					t.Log("Clone dropped the sparse representation")
					return false
				}
			case 4:
				dense.Fill(0)
				sparse.Fill(0)
			}
			if !check("after batch") {
				return false
			}
		}
		// Row materialization and stored-cell enumeration agree too.
		for s := 0; s < n; s++ {
			dr, sr := dense.Row(s), sparse.Row(s)
			for e := range dr {
				if dr[e] != sr[e] {
					t.Logf("Row(%d)[%d] dense=%v sparse=%v", s, e, dr[e], sr[e])
					return false
				}
			}
		}
		type cell struct {
			s, e int
			v    float64
		}
		var dc, sc []cell
		dense.EachStored(func(s, e int, v float64) { dc = append(dc, cell{s, e, v}) })
		sparse.EachStored(func(s, e int, v float64) { sc = append(sc, cell{s, e, v}) })
		if len(dc) != len(sc) {
			t.Logf("EachStored: dense %d cells, sparse %d", len(dc), len(sc))
			return false
		}
		for i := range dc {
			if dc[i] != sc[i] {
				t.Logf("EachStored[%d]: dense %+v sparse %+v", i, dc[i], sc[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseSnapshotRoundTrip pins persistence of the sparse form: gob
// and JSON round-trips reproduce every value, restore into the sparse
// representation, and the coordinate payload is byte-deterministic —
// two encodes of the same table are identical.
func TestSparseSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := newSparseTable(40)
	for i := 0; i < 200; i++ {
		q.Set(rng.Intn(40), rng.Intn(40), float64(rng.Intn(9)-4))
	}
	var g1, g2 bytes.Buffer
	if err := q.WriteGob(&g1); err != nil {
		t.Fatal(err)
	}
	if err := q.WriteGob(&g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1.Bytes(), g2.Bytes()) {
		t.Fatal("gob encoding of a sparse table is not deterministic")
	}
	back, err := ReadGob(&g1)
	if err != nil {
		t.Fatal(err)
	}
	if back.IsDense() {
		t.Fatal("gob round-trip of a sparse table restored dense")
	}
	var j bytes.Buffer
	if err := q.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	jback, err := ReadJSON(&j)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		for e := 0; e < 40; e++ {
			want := q.Get(s, e)
			if v := back.Get(s, e); v != want {
				t.Fatalf("gob round-trip: Get(%d,%d) = %v, want %v", s, e, v, want)
			}
			if v := jback.Get(s, e); v != want {
				t.Fatalf("json round-trip: Get(%d,%d) = %v, want %v", s, e, v, want)
			}
		}
	}
}

// TestSparseMemoryFollowsVisitedSet is the reason the representation
// exists: a barely-visited large table must cost orders of magnitude
// less than 8n², and Stored must count visited cells, not n².
func TestSparseMemoryFollowsVisitedSet(t *testing.T) {
	const n = 50_000
	q := New(n)
	if q.IsDense() {
		t.Fatalf("New(%d) chose dense above DefaultDenseMaxItems=%d", n, DefaultDenseMaxItems)
	}
	rng := rand.New(rand.NewSource(3))
	const visits = 10_000
	for i := 0; i < visits; i++ {
		q.Set(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
	}
	if s := q.Stored(); s > visits {
		t.Fatalf("Stored = %d after %d visits", s, visits)
	}
	denseBytes := 8 * n * n
	if got := q.MemoryBytes(); got > denseBytes/100 {
		t.Fatalf("MemoryBytes = %d, want well under 1%% of dense %d", got, denseBytes)
	}
}

// TestNewSelectsRepresentation pins the constructor thresholds,
// including the operator override.
func TestNewSelectsRepresentation(t *testing.T) {
	if !New(DefaultDenseMaxItems).IsDense() {
		t.Error("New at the threshold should be dense")
	}
	if New(DefaultDenseMaxItems + 1).IsDense() {
		t.Error("New above the threshold should be sparse")
	}
	if !NewWithDenseMax(500, 500).IsDense() {
		t.Error("NewWithDenseMax(500, 500) should be dense")
	}
	if NewWithDenseMax(501, 500).IsDense() {
		t.Error("NewWithDenseMax(501, 500) should be sparse")
	}
	if !NewWithDenseMax(4096, 0).IsDense() {
		t.Error("denseMax <= 0 should fall back to the default threshold")
	}
}
