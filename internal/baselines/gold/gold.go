// Package gold synthesizes the "fully manual gold standard" of §IV-A2: a
// handcrafted-quality plan that satisfies every hard constraint and matches
// one of the expert template permutations exactly. For courses such a plan
// scores the perfect-match bound H (10 for Univ-1, 15 for Univ-2); for
// trips the synthesizer additionally maximizes POI popularity, mirroring a
// travel agent picking the most famous feasible POIs.
//
// The synthesizer runs a depth-first search over template slots with
// popularity/coverage-ordered candidates and a node cap, so it behaves
// like an expert: near-greedy with a little lookahead.
package gold

import (
	"context"
	"fmt"
	"sort"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

// maxNodes caps the DFS so pathological instances fail fast instead of
// hanging; real instances need far fewer nodes.
const maxNodes = 200000

// distCache serves leg distances from the same tiered distance store
// the learner's environment uses (geo.NewDistStore), so the gold
// synthesizer and the MDP measure identical geometry at every catalog
// size.
type distCache struct {
	store geo.Store
}

// newDistCache builds the cache for a catalog; active is the instance's
// "distance constraint in play" flag (leg is only consulted when it is).
func newDistCache(c *item.Catalog, active bool) distCache {
	if !active {
		return distCache{}
	}
	pts := make([]geo.Point, c.Len())
	for i := range pts {
		m := c.At(i)
		pts[i] = geo.Point{Lat: m.Lat, Lon: m.Lon}
	}
	return distCache{store: geo.NewDistStore(pts, 0)}
}

// leg returns the distance between items i and j in kilometers.
func (d distCache) leg(i, j int) float64 {
	return d.store.Dist(i, j)
}

// Plan synthesizes a gold-standard plan for the instance. For instances
// with a length/split requirement it tries each template permutation in
// order and returns the first full assignment. For budget-only instances
// (the city trips, whose hard constraint is the visitation time) it acts
// like a travel agent: greedily add the most popular POI that keeps every
// hard constraint satisfied, until the budget is spent.
func Plan(inst *dataset.Instance) ([]int, error) {
	return PlanContext(context.Background(), inst)
}

// PlanContext is Plan under a context: the DFS checks the deadline every
// ctxCheckStride nodes and the greedy itinerary builder checks it per
// slot, so a canceled training budget abandons the synthesis promptly
// instead of exploring up to the full node cap.
func PlanContext(ctx context.Context, inst *dataset.Instance) ([]int, error) {
	if inst.Hard.Length() == 0 {
		return greedyPopular(ctx, inst)
	}
	for _, perm := range inst.Soft.Template {
		plan, err := fill(ctx, inst, perm)
		if err != nil {
			return nil, err
		}
		if plan != nil {
			return plan, nil
		}
	}
	return nil, fmt.Errorf("gold: no constraint-perfect plan exists for %s", inst.Name)
}

// ctxCheckStride is how many DFS nodes may expand between context
// checks — frequent enough to cancel within microseconds, rare enough to
// keep the check out of the per-node cost.
const ctxCheckStride = 256

// greedyPopular builds the travel-agent gold itinerary: highest-popularity
// feasible POI first, repeated until nothing fits the time budget.
func greedyPopular(ctx context.Context, inst *dataset.Instance) ([]int, error) {
	c := inst.Catalog
	h := inst.Hard
	var plan []int
	chosen := make([]bool, c.Len())
	positions := make(map[string]int, c.Len())
	dc := newDistCache(c, h.MaxDistanceKm > 0)
	var credits, distance float64

	// Seed with the single most popular POI.
	for len(plan) < c.Len() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best, bestPop := -1, -1.0
		for idx := 0; idx < c.Len(); idx++ {
			if chosen[idx] {
				continue
			}
			m := c.At(idx)
			if credits+m.Credits > h.Credits {
				continue
			}
			if !prereq.Satisfied(m.Prereq, len(plan), positions, h.Gap) {
				continue
			}
			if h.ThemeGap && len(plan) > 0 {
				prev := c.At(plan[len(plan)-1])
				if m.Category >= 0 && m.Category == prev.Category {
					continue
				}
			}
			if h.MaxDistanceKm > 0 && len(plan) > 0 &&
				distance+dc.leg(plan[len(plan)-1], idx) > h.MaxDistanceKm {
				continue
			}
			if m.Popularity > bestPop {
				best, bestPop = idx, m.Popularity
			}
		}
		if best < 0 {
			break
		}
		m := c.At(best)
		if h.MaxDistanceKm > 0 && len(plan) > 0 {
			distance += dc.leg(plan[len(plan)-1], best)
		}
		positions[m.ID] = len(plan)
		plan = append(plan, best)
		chosen[best] = true
		credits += m.Credits
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("gold: no feasible itinerary for %s", inst.Name)
	}
	return plan, nil
}

// searchState tracks the DFS bookkeeping.
type searchState struct {
	ctx       context.Context
	inst      *dataset.Instance
	perm      []item.Type
	plan      []int
	positions map[string]int
	chosen    []bool
	dc        distCache
	credits   float64
	distance  float64
	nodes     int
	err       error // ctx error that aborted the search, if any
}

// fill attempts to realize one permutation; (nil, nil) when impossible
// within the node budget, an error only when the context was canceled.
func fill(ctx context.Context, inst *dataset.Instance, perm []item.Type) ([]int, error) {
	st := &searchState{
		ctx:       ctx,
		inst:      inst,
		perm:      perm,
		positions: make(map[string]int, len(perm)),
		chosen:    make([]bool, inst.Catalog.Len()),
		dc:        newDistCache(inst.Catalog, inst.Hard.MaxDistanceKm > 0),
	}
	if st.dfs(0) {
		return st.plan, nil
	}
	return nil, st.err
}

func (st *searchState) dfs(pos int) bool {
	if pos == len(st.perm) {
		// Course plans must also reach the credit floor.
		if st.inst.Hard.CreditMode == constraints.MinCredits &&
			st.credits < st.inst.Hard.Credits {
			return false
		}
		return true
	}
	if st.nodes >= maxNodes || st.err != nil {
		return false
	}
	for _, cand := range st.candidates(pos) {
		if st.nodes%ctxCheckStride == 0 {
			if err := st.ctx.Err(); err != nil {
				st.err = err
				return false
			}
		}
		st.nodes++
		st.push(pos, cand)
		if st.dfs(pos + 1) {
			return true
		}
		st.pop(pos, cand)
	}
	return false
}

// candidates returns the feasible items for a slot, best-first: higher
// popularity, then more topics, then id for determinism.
func (st *searchState) candidates(pos int) []int {
	c := st.inst.Catalog
	h := st.inst.Hard
	want := st.perm[pos]
	var out []int
	for idx := 0; idx < c.Len(); idx++ {
		if st.chosen[idx] {
			continue
		}
		m := c.At(idx)
		if m.Type != want {
			continue
		}
		if !prereq.Satisfied(m.Prereq, pos, st.positions, h.Gap) {
			continue
		}
		if h.CreditMode == constraints.MaxCredits && st.credits+m.Credits > h.Credits {
			continue
		}
		if h.ThemeGap && pos > 0 {
			prev := c.At(st.plan[pos-1])
			if m.Category >= 0 && m.Category == prev.Category {
				continue
			}
		}
		if h.MaxDistanceKm > 0 && pos > 0 &&
			st.distance+st.dc.leg(st.plan[pos-1], idx) > h.MaxDistanceKm {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(a, b int) bool {
		ma, mb := c.At(out[a]), c.At(out[b])
		if ma.Popularity != mb.Popularity {
			return ma.Popularity > mb.Popularity
		}
		ta, tb := ma.Topics.Count(), mb.Topics.Count()
		if ta != tb {
			return ta > tb
		}
		return ma.ID < mb.ID
	})
	return out
}

func (st *searchState) push(pos, idx int) {
	c := st.inst.Catalog
	m := c.At(idx)
	if pos > 0 && st.inst.Hard.MaxDistanceKm > 0 {
		st.distance += st.dc.leg(st.plan[pos-1], idx)
	}
	st.plan = append(st.plan, idx)
	st.positions[m.ID] = pos
	st.chosen[idx] = true
	st.credits += m.Credits
}

func (st *searchState) pop(pos, idx int) {
	c := st.inst.Catalog
	m := c.At(idx)
	st.plan = st.plan[:len(st.plan)-1]
	delete(st.positions, m.ID)
	st.chosen[idx] = false
	st.credits -= m.Credits
	if pos > 0 && st.inst.Hard.MaxDistanceKm > 0 {
		st.distance -= st.dc.leg(st.plan[len(st.plan)-1], idx)
	}
}
