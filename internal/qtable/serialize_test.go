package qtable

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSparse(rng *rand.Rand) *Table {
	n := 1 + rng.Intn(16)
	q := newSparseTable(n)
	for i := 0; i < 2*n; i++ {
		q.Set(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return q
}

// sparseEqual reports whether b is a sparse-backed table reading
// exactly like a.
func sparseEqual(a, b *Table) bool {
	return !b.IsDense() && equal(a, b)
}

// TestPropertySparseRoundTrip: random sparse-backed tables survive both
// encodings bit-exactly, restore into the sparse form, and re-encoding
// yields identical bytes — the snapshot's (s, e) sort makes
// serialization independent of slot order.
func TestPropertySparseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomSparse(rng)
		var gobBuf, jsonBuf bytes.Buffer
		if err := q.WriteGob(&gobBuf); err != nil {
			return false
		}
		if err := q.WriteJSON(&jsonBuf); err != nil {
			return false
		}
		fromGob, err := ReadGob(bytes.NewReader(gobBuf.Bytes()))
		if err != nil || !sparseEqual(q, fromGob) {
			return false
		}
		fromJSON, err := ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
		if err != nil || !sparseEqual(q, fromJSON) {
			return false
		}
		// Deterministic bytes: encoding the decoded copy reproduces the
		// original stream exactly for both codecs.
		var gob2, json2 bytes.Buffer
		if err := fromGob.WriteGob(&gob2); err != nil {
			return false
		}
		if err := fromJSON.WriteJSON(&json2); err != nil {
			return false
		}
		return bytes.Equal(gobBuf.Bytes(), gob2.Bytes()) && bytes.Equal(jsonBuf.Bytes(), json2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDenseRoundTrip is the dense twin — random tables through
// gob and JSON, byte-deterministic on re-encode.
func TestPropertyDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		q := New(n)
		for i := 0; i < 2*n; i++ {
			q.Set(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		var gobBuf, jsonBuf bytes.Buffer
		if q.WriteGob(&gobBuf) != nil || q.WriteJSON(&jsonBuf) != nil {
			return false
		}
		fromGob, err := ReadGob(bytes.NewReader(gobBuf.Bytes()))
		if err != nil || !equal(q, fromGob) {
			return false
		}
		fromJSON, err := ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
		if err != nil || !equal(q, fromJSON) {
			return false
		}
		var gob2 bytes.Buffer
		return fromGob.WriteGob(&gob2) == nil && bytes.Equal(gobBuf.Bytes(), gob2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOverlayExportSurvivesSerialization closes the loop the
// personalization plane ships through: overlay → ExportDelta → merged
// dense table → gob/JSON → decode, with the decoded table still reading
// exactly like the layered view.
func TestPropertyOverlayExportSurvivesSerialization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		base := New(n)
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				base.Set(s, e, rng.NormFloat64())
			}
		}
		o := NewOverlay(base, 0)
		for i := 0; i < 2*n; i++ {
			o.Set(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		merged := base.Clone()
		merged.Merge(o.ExportDelta(), 1)
		var buf bytes.Buffer
		if merged.WriteGob(&buf) != nil {
			return false
		}
		decoded, err := ReadGob(&buf)
		if err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if decoded.Get(s, e) != o.Get(s, e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadSparseRejectsCorrupt feeds the sparse (coordinate) snapshot
// layout malformed payloads.
func TestReadSparseRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"n":-1,"s":[],"e":[],"v":[]}`,       // negative size
		`{"n":3,"s":[0,1],"e":[0],"v":[1,2]}`, // ragged coordinates
		`{"n":3,"s":[0],"e":[3],"v":[1]}`,     // action out of range
		`{"n":3,"s":[-1],"e":[0],"v":[1]}`,    // state out of range
		`{`,                                   // truncated
	}
	for _, c := range cases {
		if _, err := ReadJSON(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("corrupt snapshot accepted: %s", c)
		}
	}
}

// FuzzReadSparseJSON: arbitrary bytes, seeded with the sparse
// coordinate layout, must either decode into a structurally valid table
// or fail with an error — never panic, and never yield a table whose
// reads escape its declared bounds.
func FuzzReadSparseJSON(f *testing.F) {
	f.Add([]byte(`{"n":3,"s":[0,2],"e":[1,2],"v":[0.5,-1]}`))
	f.Add([]byte(`{"n":0,"s":[],"e":[],"v":[]}`))
	f.Add([]byte(`{"n":2,"s":[1],"e":[3],"v":[1]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"n":4294967296}`))
	f.Add([]byte(`{"n":4294967296,"s":[0],"e":[0],"v":[1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := q.Size()
		if n < 0 {
			t.Fatalf("decoded negative size %d", n)
		}
		for s := 0; s < n && s < 8; s++ {
			for e := 0; e < n && e < 8; e++ {
				_ = q.Get(s, e)
			}
		}
		var buf bytes.Buffer
		if err := q.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode of decoded table failed: %v", err)
		}
	})
}

// FuzzReadGob: the dense decoder under arbitrary input — error or a
// table consistent with its size, never a panic.
func FuzzReadGob(f *testing.F) {
	var seed bytes.Buffer
	q := New(3)
	q.Set(0, 2, 1.5)
	_ = q.WriteGob(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte("junk"))
	var huge bytes.Buffer
	_ = gob.NewEncoder(&huge).Encode(snapshot{N: math.MaxInt})
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadGob(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := got.Size()
		for s := 0; s < n && s < 8; s++ {
			_ = got.Get(s, 0)
		}
	})
}
