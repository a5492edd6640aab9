package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/httpapi"
)

// cold-train: writes to the policy store beside serve-builtin's reads.
// Every op asks /api/plan, with server defaults, for one of the six
// built-ins under a training seed no earlier op used, so it misses the
// cache and trains or auto-derives; the 128-entry store fills and evicts.
// An op's cost grows with the number of cached policies (auto-derive
// matches against each), so the work is fixed by an op count, not a
// duration: a run is whole epochs of coldEpochOps ops, each on a fresh
// server, until --seconds of ops have run.

const (
	coldEpochOps = 192 // 1.5x the default 128-entry policy store
	coldSetups   = 15
)

func coldMaxEpochs(seconds int) int { return seconds + 1 }

type coldState struct {
	c     *inproc
	insts []*rlplanner.Instance
	names [][]byte // JSON-quoted instance names
}

// coldSetup starts a server with defaults and trains one default-options
// policy per built-in through it, as a first request for each would.
func coldSetup() (*coldState, error) {
	st := &coldState{c: newInproc(httpapi.New().Handler()), insts: rlplanner.Instances()}
	var pr planResponse
	for _, in := range st.insts {
		name, err := json.Marshal(in.Name())
		if err != nil {
			return nil, err
		}
		st.names = append(st.names, name)
		body := append(append([]byte(`{"instance":`), name...), '}')
		if _, err := st.c.call(http.MethodPost, "/api/plan", body, http.StatusOK, &pr); err != nil {
			return nil, err
		}
		if err := pr.check(); err != nil {
			return nil, fmt.Errorf("warm-up plan for %s: %w", in.Name(), err)
		}
	}
	return st, nil
}

// coldProbe is the traced run's per-op instrumentation.
type coldProbe struct {
	tr       *tracer
	probes   []*layerProbe
	sources  []*rlplanner.Policy // a default-options policy per built-in
	cache    cacheDelta
	train    trainDelta
	env      envDelta
	fallback uint64
}

// coldPhase is one timed pass; each epoch is one measurement window.
type coldPhase struct {
	lat     []int64
	q       quality
	dg      digest
	win     windows
	elapsed time.Duration // op time of all epochs
	epochs  int
}

func newColdPhase(seconds int, cal *calibrator) *coldPhase {
	maxOps := coldMaxEpochs(seconds) * coldEpochOps
	return &coldPhase{lat: make([]int64, 0, maxOps), win: newWindows(cal, coldEpochOps, 2, maxOps)}
}

// epoch runs the op stream once on st.
func (ph *coldPhase) epoch(st *coldState, r *report, seed int64, pb *coldProbe) error {
	stream := newColdStream(seed, len(st.insts))
	var pr planResponse
	var ids []string
	body := make([]byte, 0, 128)
	start := time.Now()
	ph.win.begin(len(ph.lat))
	for i := 0; i < coldEpochOps; i++ {
		op := stream.next()
		body = append(append(append(body[:0], `{"instance":`...), st.names[op.inst]...), `,"seed":`...)
		body = append(strconv.AppendInt(body, op.seed, 10), '}')

		var m0 map[string]int64
		var t0 engine.TrainCounters
		var e0 engine.CacheStats
		if pb != nil {
			var err error
			if m0, err = serverMetrics(st.c); err != nil {
				return err
			}
			t0, e0 = engine.TrainStats(), engine.EnvCacheStats()
		}
		r.Ops["plan"]++
		fb0 := geo.FallbackTotal()
		s := time.Now()
		lat, err := st.c.call(http.MethodPost, "/api/plan", body, http.StatusOK, &pr)
		ph.lat = append(ph.lat, int64(lat))
		ph.win.step(len(ph.lat))
		if err == nil {
			err = pr.check()
		}
		var h uint64
		planOK := err == nil
		if !planOK {
			r.fail("plan", "epoch %d op %d: %v", ph.epochs, i, err)
		} else {
			ids = pr.ids(ids)
			h = planHash(ids)
			ph.q.add(pr.Score, pr.SatisfiesConstraints)
		}
		if ph.epochs == 0 {
			ph.dg.add(h)
		}
		if pb != nil {
			pb.fallback += geo.FallbackTotal() - fb0
			pb.train.add(t0, engine.TrainStats())
			pb.env.add(e0, engine.EnvCacheStats())
			m1, err := serverMetrics(st.c)
			if err != nil {
				return err
			}
			pb.cache.add(m0, m1, 1)
			root := pb.tr.record("httpapi.plan", i, -1, s, lat)
			if planOK {
				pb.replay(r, i, root, st.insts[op.inst], op, ids, pr.Score)
			}
		}
	}
	ph.elapsed += time.Since(start)
	ph.epochs++
	return nil
}

// replay times, on the same inputs, the calls the handler's cold start
// made: a cold rlplanner.Train, the walk over its policy, and the
// transfer match auto-derive runs against each cached source.
func (pb *coldProbe) replay(r *report, i, root int, inst *rlplanner.Instance, op coldOp, ids []string, score float64) {
	r.Ops["verify"]++
	t0 := time.Now()
	pol, err := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Seed: op.seed})
	pb.tr.record("engine.train", i, root, t0, time.Since(t0))
	if err == nil {
		t1 := time.Now()
		_, err = pol.Recommend("")
		pb.tr.record("sarsa.walk", i, root, t1, time.Since(t1))
	}
	for j, src := range pb.sources {
		if err != nil || j == op.inst {
			continue
		}
		t2 := time.Now()
		_, err = src.MatchDistance(inst)
		pb.tr.record("transfer.match", i, root, t2, time.Since(t2))
	}
	if err == nil {
		// The served plan, whichever way its policy was made, must score
		// the same under eval.
		err = pb.probes[op.inst].probe(pb.tr, root, ids, score)
	}
	if err != nil {
		r.fail("verify", "op %d: %v", i, err)
	}
}

func runCold(cfg config) (*report, error) {
	ctx := context.Background()
	r := newReport()
	cal := newCalibrator()
	ph := newColdPhase(cfg.seconds, cal)
	d := time.Duration(cfg.seconds) * time.Second

	var pb *coldProbe
	if cfg.trace {
		probes, err := builtinProbes(ctx, r)
		if err != nil {
			return nil, err
		}
		pb = &coldProbe{tr: newTracer(), probes: probes}
		for _, in := range rlplanner.Instances() {
			pol, err := rlplanner.Train(ctx, in, "sarsa", rlplanner.Options{})
			if err != nil {
				return nil, err
			}
			pb.sources = append(pb.sources, pol)
		}
	}
	st, err := repeatSetup(r, cal, coldSetups, coldSetup)
	if err != nil {
		return nil, err
	}

	u0 := snapshot()
	for ph.elapsed < d && ph.epochs < coldMaxEpochs(cfg.seconds) {
		if ph.epochs > 0 {
			if st, err = coldSetup(); err != nil {
				return nil, err
			}
		}
		if err := ph.epoch(st, r, cfg.seed, nil); err != nil {
			return nil, err
		}
	}
	u1 := snapshot()
	r.set("heap_live_mib", heapLiveMiB(8*cap(ph.lat)+ph.win.bytes()), "MiB")
	runtime.KeepAlive(st) // the live heap is the last epoch's server
	phaseUsage(r, u0, u1, len(ph.lat))
	if err := ph.win.fill(r, ph.lat); err != nil {
		return nil, err
	}
	ph.q.fill(r)
	ph.dg.fill(r)
	if !cfg.trace {
		return r, nil
	}

	// Traced run: one epoch on a fresh server, every op replayed.
	if st, err = coldSetup(); err != nil {
		return nil, err
	}
	traced := newColdPhase(1, cal)
	if err := traced.epoch(st, r, cfg.seed, pb); err != nil {
		return nil, err
	}
	tr := pb.tr
	plans := len(traced.lat)
	pb.cache.fill(r)
	pb.train.fill(r)
	pb.env.fill(r)
	probeMetrics(r, tr, pb.probes, plans)
	r.ratio("httpapi.plan_self_us", 0, 0, "us")
	r.ratio("httpapi.feedback_us", 0, 0, "us")
	r.set("httpapi.errors", float64(r.OpsFailed["plan"]), "count")
	r.medianOf("transfer.match_us", tr.durations("transfer.match"), "us")
	r.medianOf("engine.train_ms", tr.durations("engine.train"), "ms")
	r.medianOf("sarsa.walk_us", tr.durations("sarsa.walk"), "us")
	r.ratio("geo.fallbacks_per_plan", float64(pb.fallback), float64(plans), "count")
	r.set("qtable.policy_bytes", float64(pb.cache.policyBytes), "B")
	r.ratio("qtable.overlay_bytes_per_user", 0, 0, "B")
	overhead(r, ph.lat, traced.lat)
	return r, tr.dump("cold-train", cfg.seed)
}
