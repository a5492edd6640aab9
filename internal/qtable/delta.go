package qtable

import "fmt"

// Delta is a recorded sequence of SARSA update operations against a
// frozen base table — the unit of the parallel trainer's deterministic
// merge protocol (DESIGN §12). A walker runs one episode reading the
// shared read-only table and records, per step, the TD target it
// computed from that frozen view; the merger later replays the
// operations in episode-index order with Table.Merge. Because an
// operation carries the target (not the resulting value), the merge
// result depends only on the merge order, never on which goroutine
// walked which episode — the property that makes Workers=1 and
// Workers=N bit-identical.
//
// A Delta belongs to one goroutine at a time: one walker records into
// it, then the single merging goroutine consumes it. Reset lets one
// Delta serve every batch a walker slot processes.
type Delta struct {
	n   int
	ops []deltaOp
}

// deltaOp is one recorded update: Q(s,e) ← Q(s,e) + α·(target − Q(s,e)).
type deltaOp struct {
	s, e   int32
	target float64
}

// NewDelta returns an empty delta for an n×n table.
func NewDelta(n int) *Delta {
	if n < 0 {
		panic(fmt.Sprintf("qtable: negative size %d", n))
	}
	return &Delta{n: n}
}

// Record appends one update operation. The target is the full TD target
// r + γ·Q_base(s',e') evaluated against the frozen base table.
func (d *Delta) Record(s, e int, target float64) {
	if s < 0 || s >= d.n || e < 0 || e >= d.n {
		panic(fmt.Sprintf("qtable: delta index (%d,%d) out of range [0,%d)", s, e, d.n))
	}
	d.ops = append(d.ops, deltaOp{s: int32(s), e: int32(e), target: target})
}

// Len returns the number of recorded operations.
func (d *Delta) Len() int { return len(d.ops) }

// Each calls fn for every recorded operation in recorded order.
func (d *Delta) Each(fn func(s, e int, target float64)) {
	for _, op := range d.ops {
		fn(int(op.s), int(op.e), op.target)
	}
}

// Reset empties the delta, keeping its backing storage for reuse.
func (d *Delta) Reset() { d.ops = d.ops[:0] }

// Merge replays the delta's operations into the table in recorded
// order, applying Q(s,e) ← Q(s,e) + α·(target − Q(s,e)) per op. When
// two episodes of one batch touch the same pair, the later merge reads
// the earlier one's result — exactly the chaining a sequential learner
// would produce had both episodes seen the frozen bootstrap values.
func (t *Table) Merge(d *Delta, alpha float64) {
	if d.n != t.n {
		panic(fmt.Sprintf("qtable: merging delta over %d items into table of %d", d.n, t.n))
	}
	if t.q != nil {
		for _, op := range d.ops {
			i := int(op.s)*t.n + int(op.e)
			if alpha == 1 {
				// q + 1·(target − q) is target only up to rounding; assign
				// directly so α=1 replays (overlay densification) are
				// bit-exact, not merely close.
				t.q[i] = op.target
				continue
			}
			t.q[i] += alpha * (op.target - t.q[i])
		}
		return
	}
	// The sparse form: identical arithmetic per op against the visited-cell
	// rows — the merge order alone determines the result, exactly as in
	// the dense replay, so parallel training stays bit-identical across
	// representations of the same values.
	for _, op := range d.ops {
		row := &t.rows[op.s]
		if alpha == 1 {
			if op.target == 0 && row.get(op.e) == 0 {
				continue
			}
			row.set(op.e, op.target)
			continue
		}
		v := row.get(op.e)
		v += alpha * (op.target - v)
		if v == 0 && row.get(op.e) == 0 {
			continue
		}
		row.set(op.e, v)
	}
}
