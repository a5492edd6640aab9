package main

import (
	"bytes"
	"context"
	"fmt"
	"time"
	"unsafe"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
)

// plan-8k: the data plane at scale, through the library facade only.
// One generated 8192-item catalog with coordinates and a distance
// budget is trained with a small fixed budget; the client then asks
// Policy.Recommend from a fixed panel of start items in seeded order. 8192 is above both
// dense thresholds (4096 items for the dense Q table, and for exact
// distances), so every plan walks the sparse Q table, scans all
// candidates at every step and reads distances from the neighbour store.

const (
	p8kItems     = 8192
	p8kEpisodes  = 50 // small fixed training budget
	p8kTrainSeed = 1
	p8kVerifyOps = 64 // plans replayed through a reloaded policy
	p8kSetups    = 3  // set-ups per run, each on its own catalog
)

func p8kMaxOps(seconds int) int { return seconds * 1000 }

// p8kParams is the catalog of one set-up. Each set-up of a run uses its
// own catalog seed, so every environment build is cold; the last set-up,
// the one the traffic runs on, always uses catalog seed 1.
func p8kParams(rep int) synth.Params {
	return synth.Params{Name: "synthetic-8192", Items: p8kItems, Geo: true, Seed: int64(p8kSetups - rep)}
}

type p8kState struct {
	inst           *rlplanner.Instance
	pol            *rlplanner.Policy
	ids            []string // item id by catalog index
	probe          *layerProbe
	envNs, trainNs int64
}

// p8kSetup generates the catalog, builds its environment through the
// engine cache and trains the policy, which reuses that environment.
func p8kSetup(ctx context.Context, rep int) (*p8kState, error) {
	params := p8kParams(rep)
	dinst, err := synth.Generate(params)
	if err != nil {
		return nil, err
	}
	opts := rlplanner.Options{Episodes: p8kEpisodes, Seed: p8kTrainSeed}
	t0 := time.Now()
	env, err := engine.EnvFor(ctx, dinst, core.Options{Episodes: opts.Episodes, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	st := &p8kState{envNs: int64(time.Since(t0)), probe: &layerProbe{dinst: dinst, env: env}}
	st.inst, err = rlplanner.GenerateInstance(rlplanner.GenParams{Name: params.Name, Items: params.Items, Geo: params.Geo, Seed: params.Seed})
	if err != nil {
		return nil, err
	}
	if st.inst.Fingerprint() != engine.Fingerprint(dinst) {
		return nil, fmt.Errorf("public and internal generators disagree on the catalog")
	}
	t0 = time.Now()
	if st.pol, err = rlplanner.Train(ctx, st.inst, "sarsa", opts); err != nil {
		return nil, err
	}
	st.trainNs = int64(time.Since(t0))
	for _, it := range st.inst.Items() {
		st.ids = append(st.ids, it.ID)
	}
	return st, nil
}

// p8kServed is what the timed phase kept of one plan for the replay.
type p8kServed struct {
	hash  uint64
	score float64
	ok    bool
}

// p8kPhase is one timed pass. Plan quality and the digest cover the
// first cycle through the start panel, the same plans in every run, and
// each measurement window is one whole cycle.
type p8kPhase struct {
	lat       []int64
	served    []p8kServed
	q         quality
	dg        digest
	win       windows
	fallbacks uint64
}

func newP8kPhase(maxOps int, cal *calibrator) *p8kPhase {
	return &p8kPhase{lat: make([]int64, 0, maxOps), served: make([]p8kServed, 0, panelSize), win: newWindows(cal, panelSize, 4, maxOps)}
}

// run asks plans for d; with tr set, each plan is also probed.
func (ph *p8kPhase) run(st *p8kState, r *report, seed int64, d time.Duration, tr *tracer) {
	stream := newStartStream(seed, len(st.ids))
	end := time.Now().Add(d)
	ph.win.begin(0)
	for i := 0; time.Now().Before(end) && len(ph.lat) < cap(ph.lat); i++ {
		r.Ops["plan"]++
		fb0 := geo.FallbackTotal()
		t0 := time.Now()
		plan, err := st.pol.Recommend(st.ids[stream.next()])
		lat := time.Since(t0)
		ph.fallbacks += geo.FallbackTotal() - fb0
		ph.lat = append(ph.lat, int64(lat))
		if err == nil && len(plan.Steps) == 0 {
			err = fmt.Errorf("empty plan")
		}
		sv := p8kServed{ok: err == nil}
		if err != nil {
			r.fail("plan", "op %d: %v", i, err)
		} else {
			ids := plan.IDs()
			sv.hash, sv.score = planHash(ids), plan.Score
			if i < panelSize {
				ph.q.add(plan.Score, plan.SatisfiesConstraints)
			}
			if tr != nil {
				walk := tr.record("sarsa.walk", i, -1, t0, lat)
				r.Ops["verify"]++
				if err := st.probe.probe(tr, walk, ids, plan.Score); err != nil {
					r.fail("verify", "op %d: %v", i, err)
				}
			}
		}
		if len(ph.served) < panelSize {
			ph.served = append(ph.served, sv)
			ph.dg.add(sv.hash)
		}
		if n := len(ph.lat); ph.win.step(n) {
			ph.win.begin(n)
		}
	}
}

// verify reloads the policy from its saved artifact and replays the
// first plans through it; they must be identical to the served ones.
func (ph *p8kPhase) verify(st *p8kState, r *report, seed int64) error {
	var art bytes.Buffer
	if err := st.pol.Save(&art); err != nil {
		return err
	}
	pol, err := rlplanner.LoadPolicyArtifact(&art, st.inst, rlplanner.Options{Episodes: p8kEpisodes, Seed: p8kTrainSeed})
	if err != nil {
		return err
	}
	stream := newStartStream(seed, len(st.ids))
	for i, sv := range ph.served[:min(len(ph.served), p8kVerifyOps)] {
		startID := st.ids[stream.next()]
		if !sv.ok {
			continue
		}
		r.Ops["verify"]++
		plan, err := pol.Recommend(startID)
		if err == nil && (planHash(plan.IDs()) != sv.hash || plan.Score != sv.score) {
			err = fmt.Errorf("replayed plan %v (score %v) differs from the served plan (score %v)", plan.IDs(), plan.Score, sv.score)
		}
		if err != nil {
			r.fail("verify", "op %d from %s: %v", i, startID, err)
		}
	}
	return nil
}

func runPlan8k(cfg config) (*report, error) {
	ctx := context.Background()
	r := newReport()
	cal := newCalibrator()
	ph := newP8kPhase(p8kMaxOps(cfg.seconds), cal)
	d := time.Duration(cfg.seconds) * time.Second

	var train trainDelta
	var envNs, trainNs []int64
	t0 := engine.TrainStats()
	rep := 0
	st, err := repeatSetup(r, cal, p8kSetups, func() (*p8kState, error) {
		st, err := p8kSetup(ctx, rep)
		rep++
		if err == nil {
			envNs, trainNs = append(envNs, st.envNs), append(trainNs, st.trainNs)
		}
		return st, err
	})
	if err != nil {
		return nil, err
	}
	train.add(t0, engine.TrainStats())

	u0 := snapshot()
	ph.run(st, r, cfg.seed, d, nil)
	u1 := snapshot()
	r.set("heap_live_mib", heapLiveMiB(8*cap(ph.lat)+int(unsafe.Sizeof(p8kServed{}))*cap(ph.served)+ph.win.bytes()), "MiB")
	phaseUsage(r, u0, u1, len(ph.lat))
	if err := ph.win.fill(r, ph.lat); err != nil {
		return nil, err
	}
	ph.q.fill(r)
	ph.dg.fill(r)
	if err := ph.verify(st, r, cfg.seed); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return r, nil
	}

	// Traced run: the same state and op stream, every plan probed.
	tr := newTracer()
	var env envDelta
	e0 := engine.EnvCacheStats()
	traced := newP8kPhase(p8kMaxOps(cfg.seconds), cal)
	traced.run(st, r, cfg.seed, d, tr)
	env.add(e0, engine.EnvCacheStats())
	plans := len(traced.lat)

	var cache cacheDelta // no server on this path
	cache.fill(r)
	train.fill(r)
	env.fill(r)
	probeMetrics(r, tr, []*layerProbe{st.probe}, plans)
	r.ratio("httpapi.plan_self_us", 0, 0, "us")
	r.ratio("httpapi.feedback_us", 0, 0, "us")
	r.set("httpapi.errors", 0, "count")
	r.ratio("transfer.match_us", 0, 0, "us")
	r.medianOf("engine.train_ms", trainNs, "ms")
	r.medianOf("engine.env_build_ms", envNs, "ms")
	r.medianOf("sarsa.walk_us", tr.durations("sarsa.walk"), "us")
	r.ratio("geo.fallbacks_per_plan", float64(traced.fallbacks), float64(plans), "count")
	r.set("qtable.policy_bytes", float64(st.pol.MemoryBytes()), "B")
	r.ratio("qtable.overlay_bytes_per_user", 0, 0, "B")
	overhead(r, ph.lat, traced.lat)
	return r, tr.dump("plan-8k", cfg.seed)
}
