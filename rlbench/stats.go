package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is one slow op, not a
// distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and whether at least minBeyond samples lie above its rank.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// pctName names a percentile the way metric names spell it (0.99 → p99).
func pctName(p float64) string {
	return fmt.Sprintf("p%g", p*100)
}

// latencies sorts samples in place and records name_p50_ms plus the
// given tail percentile as name_<pNN>_ms. It fails when a percentile
// has too few samples beyond it, rather than report it.
func latencies(r *report, name string, samples []int64, tail float64) error {
	slices.Sort(samples)
	for _, p := range []float64{0.5, tail} {
		v, ok := percentile(samples, p)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond %s",
				name, len(samples), minBeyond, pctName(p))
		}
		base := int64(len(samples))
		r.Metrics[fmt.Sprintf("%s_%s_ms", name, pctName(p))] = metric{Value: ms(v), Unit: "ms", Base: &base}
	}
	return nil
}

// median of unsorted samples (sorted in place); 0 for none.
func median(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[(len(samples)-1)/2]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// planHash identifies a plan's item sequence.
func planHash(ids []string) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// digest folds plan hashes, in op order, into one identifier.
type digest struct {
	h uint64
	n int
}

func (d *digest) add(planHash uint64) {
	if d.n == 0 {
		d.h = 14695981039346656037 // FNV-64 offset basis
	}
	d.h = (d.h ^ planHash) * 1099511628211
	d.n++
}

func (d *digest) fill(r *report) {
	r.Digest = fmt.Sprintf("%016x", d.h)
	r.DigestOps = d.n
}

// quality accumulates the plan-quality metrics over served plans.
type quality struct {
	plans, valid int
	score        float64
}

func (q *quality) add(score float64, valid bool) {
	q.plans++
	q.score += score
	if valid {
		q.valid++
	}
}

func (q *quality) fill(r *report) {
	r.ratio("plan_score_mean", q.score, float64(q.plans), "score")
	r.ratio("plan_valid_ratio", float64(q.valid), float64(q.plans), "ratio")
}
