package main

import (
	"context"
	"fmt"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// layerProbe re-runs a served plan through the layers under the guided
// walk, in the traced run only: eval scores it again (and must agree
// with the served score), and an mdp episode steps along it, counting
// the Eq. 2 evaluations the walk's tier-1 scan made at each state.
type layerProbe struct {
	dinst *dataset.Instance
	env   *mdp.Env
	seq   []int
	cands []int

	steps, stepNs, evals int64
}

// probe replays one served plan; parent is the span of the walk that
// produced it.
func (p *layerProbe) probe(tr *tracer, parent int, ids []string, score float64) error {
	p.seq = p.seq[:0]
	for _, id := range ids {
		idx, ok := p.dinst.Catalog.Index(id)
		if !ok {
			return fmt.Errorf("served item %q not in %s", id, p.dinst.Name)
		}
		p.seq = append(p.seq, idx)
	}
	t0 := time.Now()
	d := eval.EvaluateWith(p.dinst, p.env.Hard(), p.seq)
	tr.replayed("eval.plan", parent, time.Since(t0))
	if d.Score != score {
		return fmt.Errorf("eval scores %v as %v, served %v", ids, d.Score, score)
	}

	ep, err := p.env.Start(p.seq[0])
	if err != nil {
		return err
	}
	for _, a := range p.seq[1:] {
		p.evals += p.tier1(ep)
		t1 := time.Now()
		ep.Step(a)
		p.stepNs += int64(time.Since(t1))
		p.steps++
	}
	if !ep.Done() {
		// The walk stopped early: its last scan found no action.
		p.evals += p.tier1(ep)
	}
	return nil
}

// tier1 counts the actions the guided walk's tier-1 scan evaluates with
// Eq. 2 in the episode's state: those that can step and pass the
// primary/secondary split mask. On trip catalogs the walk's time and
// distance pacing prunes further before evaluating, so there the count
// is an upper bound.
func (p *layerProbe) tier1(ep *mdp.Episode) int64 {
	p.cands = ep.AppendCandidates(p.cands[:0])
	hard := p.env.Hard()
	primaries := 0
	for _, t := range ep.Types() {
		if t == item.Primary {
			primaries++
		}
	}
	need, left := hard.Primary-primaries, hard.Length()-ep.Len()
	onlyPrimary := hard.Length() > 0 && need > 0 && need >= left
	var n int64
	c := p.env.Catalog()
	for _, a := range p.cands {
		if !onlyPrimary || c.At(a).Type == item.Primary {
			n++
		}
	}
	return n
}

// builtinProbes builds a probe per built-in, in rlplanner.Instances()
// order, over the environment the default-options policies serve from.
// Called before any set-up, it times the cold environment builds.
func builtinProbes(ctx context.Context, r *report) ([]*layerProbe, error) {
	byName := map[string]*dataset.Instance{}
	for _, in := range append(append(univ.Univ1All(), univ.Univ2DS()), trip.Instances()...) {
		byName[in.Name] = in
	}
	var probes []*layerProbe
	var build time.Duration
	for _, pub := range rlplanner.Instances() {
		dinst := byName[pub.Name()]
		if dinst == nil || engine.Fingerprint(dinst) != pub.Fingerprint() {
			return nil, fmt.Errorf("no matching dataset instance for %s", pub.Name())
		}
		t0 := time.Now()
		env, err := engine.EnvFor(ctx, dinst, core.Options{})
		if err != nil {
			return nil, err
		}
		build += time.Since(t0)
		probes = append(probes, &layerProbe{dinst: dinst, env: env})
	}
	r.ratio("engine.env_build_ms", ms(int64(build)), float64(len(probes)), "ms")
	return probes, nil
}

// probeMetrics fills the metrics of the layers under the walk.
func probeMetrics(r *report, tr *tracer, probes []*layerProbe, plans int) {
	var steps, stepNs, evals, storeBytes int64
	for _, p := range probes {
		steps += p.steps
		stepNs += p.stepNs
		evals += p.evals
		storeBytes += int64(p.env.DistStoreBytes())
	}
	r.ratio("mdp.step_ns", float64(stepNs), float64(steps), "ns")
	r.ratio("reward.evals_per_plan", float64(evals), float64(plans), "count")
	r.set("geo.store_bytes", float64(storeBytes), "B")
	evalNs := tr.durations("eval.plan")
	r.medianOf("eval.plan_us", evalNs, "us")
}

// cacheDelta accumulates the server's policy-cache and training counters
// (from /api/metrics) over the handler calls of the traced run.
type cacheDelta struct {
	hits, misses, trainRuns, warmStarts int64
	plans                               int
	size, policyBytes                   int64
}

func (c *cacheDelta) add(m0, m1 map[string]int64, plans int) {
	c.hits += m1["policy_cache_hits"] - m0["policy_cache_hits"]
	c.misses += m1["policy_cache_misses"] - m0["policy_cache_misses"]
	c.trainRuns += m1["train_runs"] - m0["train_runs"]
	c.warmStarts += m1["train_warm_starts"] - m0["train_warm_starts"]
	c.plans += plans
	c.size, c.policyBytes = m1["policy_cache_size"], m1["policy_cache_bytes"]
}

func (c *cacheDelta) fill(r *report) {
	r.ratio("engine.policy_cache_hit_ratio", float64(c.hits), float64(c.hits+c.misses), "ratio")
	r.set("engine.policy_cache_size", float64(c.size), "count")
	// Auto-derive looks up every cached policy once per cold start, so
	// the hits beyond one per plan request are scan lookups.
	r.ratio("httpapi.derive_scans_per_cold_start", float64(c.hits-int64(c.plans)), float64(c.trainRuns), "count")
	r.ratio("httpapi.warm_start_ratio", float64(c.warmStarts), float64(c.trainRuns), "ratio")
}

// trainDelta accumulates engine.TrainStats over the training a workload
// does: set-up training for serve-builtin and plan-8k, the handler's
// cold starts for cold-train.
type trainDelta struct{ runs, episodes, wallNs int64 }

func (t *trainDelta) add(a, b engine.TrainCounters) {
	t.runs += b.Runs - a.Runs
	t.episodes += b.Episodes - a.Episodes
	t.wallNs += b.WallNs - a.WallNs
}

func (t *trainDelta) fill(r *report) {
	r.set("engine.train_runs", float64(t.runs), "count")
	base, v := t.episodes, 0.0
	if t.wallNs > 0 {
		v = float64(t.episodes) / (float64(t.wallNs) / 1e9)
	}
	r.Metrics["sarsa.episodes_per_s"] = metric{Value: v, Unit: "1/s", Base: &base}
}

// envDelta accumulates the environment cache's lookups.
type envDelta struct{ hits, misses int64 }

func (e *envDelta) add(a, b engine.CacheStats) {
	e.hits += int64(b.Hits - a.Hits)
	e.misses += int64(b.Misses - a.Misses)
}

func (e *envDelta) fill(r *report) {
	r.ratio("engine.env_cache_hit_ratio", float64(e.hits), float64(e.hits+e.misses), "ratio")
}
