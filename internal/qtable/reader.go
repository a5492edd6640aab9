package qtable

// Reader is the read surface of an action-value table — the interface
// the recommendation walk depends on. Two types implement it: the frozen
// Table a policy trains into, and the per-user Overlay layered over it.
//
// Both agree exactly on semantics: absent entries read as 0, and
// AppendArgMaxTies appends the maximal actions in ascending index
// order. The equivalence property test (reader_test.go) pins this
// across the dense and sparse Table forms and overlays over each.
//
// Readers are safe for concurrent use once their backing storage is
// frozen; Overlay additionally tolerates one concurrent writer per
// overlay (its own documented contract).
type Reader interface {
	// Size returns n, the number of items (states).
	Size() int
	// Get returns Q(s, e); 0 when never written.
	Get(s, e int) float64
	// AppendArgMaxTies appends to buf every allowed action tied for the
	// maximal Q(s, ·), in ascending index order, and returns buf
	// (allowed == nil admits every action).
	AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int
}

var (
	_ Reader = (*Table)(nil)
	_ Reader = (*Overlay)(nil)
)

// scanAppendArgMaxTies is the allowed-scan tie collector Table and
// Overlay share: it appends every allowed action tied for the maximal
// value to buf in ascending index order. When a new maximum appears, the
// earlier ties are discarded in place, so the scan allocates only if buf
// must grow. The val closure never escapes, so callers can build it over
// a stack-local row view without allocating.
func scanAppendArgMaxTies(n int, val func(e int) float64, allowed func(e int) bool, buf []int) []int {
	var best float64
	found := false
	mark := len(buf)
	for a := 0; a < n; a++ {
		if allowed != nil && !allowed(a) {
			continue
		}
		v := val(a)
		switch {
		case !found || v > best:
			best, found = v, true
			buf = buf[:mark]
			buf = append(buf, a)
		case v == best:
			buf = append(buf, a)
		}
	}
	return buf
}
