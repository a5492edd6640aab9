package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
	"unsafe"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/httpapi"
)

// serve-builtin: the production hot path. The six built-ins are trained
// with rlplanner.Train and loaded through POST /api/policies/import;
// zipf users, each pinned to one instance, then ask /api/plan through
// the server's handler, and a tenth of the ops rate the plan just served
// through POST /api/feedback.

const (
	serveTrainSeed = 1    // training seed of the imported policies
	serveVerifyOps = 4096 // plans replayed through the facade and digested
	serveTail      = 0.99 // detail-line tail: ~10^5 plans per run
	serveSetups    = 15   // set-ups per run; setup_s is their median
	// serveHeapOps is the plan count at which the live heap is measured.
	// Overlays grow with the ops served, so measuring at a fixed count,
	// not at the end of a fixed duration, keeps a faster program from
	// reading as a bigger one.
	serveHeapOps = 100000
	// serveWindowOps is the plan count of one measurement window.
	serveWindowOps = 25000
)

// serveMaxOps sizes the sample buffers before set-up, so their memory is
// the same in every run of a given length.
// The cap is about four times today's plan rate; a run that reaches it
// stops early.
func serveMaxOps(seconds int) int { return seconds * 60000 }

type builtin struct {
	inst       *rlplanner.Instance
	artifact   []byte
	jsonName   []byte
	planPrefix []byte // {"instance":<name>,"user":"u
}

type serveState struct {
	c        *inproc
	builtins []builtin
	trainNs  []int64 // one rlplanner.Train per built-in
}

// serveSetup trains the six built-ins, saves each artifact and imports
// it into a fresh server.
func serveSetup(ctx context.Context) (*serveState, error) {
	st := &serveState{c: newInproc(httpapi.New().Handler())}
	for _, in := range rlplanner.Instances() {
		t0 := time.Now()
		pol, err := rlplanner.Train(ctx, in, "sarsa", rlplanner.Options{Seed: serveTrainSeed})
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", in.Name(), err)
		}
		st.trainNs = append(st.trainNs, int64(time.Since(t0)))
		var art bytes.Buffer
		if err := pol.Save(&art); err != nil {
			return nil, fmt.Errorf("save %s: %w", in.Name(), err)
		}
		target := "/api/policies/import?instance=" + url.QueryEscape(in.Name())
		if _, err := st.c.call(http.MethodPost, target, art.Bytes(), http.StatusCreated, nil); err != nil {
			return nil, err
		}
		name, err := json.Marshal(in.Name())
		if err != nil {
			return nil, err
		}
		prefix := append(append([]byte(`{"instance":`), name...), `,"user":"u`...)
		st.builtins = append(st.builtins, builtin{inst: in, artifact: art.Bytes(), jsonName: name, planPrefix: prefix})
	}
	return st, nil
}

// servedPlan is what the timed phase kept of one plan for the replay.
type servedPlan struct {
	hash      uint64
	score     float64
	ok        bool // the plan op succeeded
	fbApplied bool // its feedback reached the server's overlay
}

// servePhase is one timed pass of the op stream.
type servePhase struct {
	planLat, fbLat []int64
	served         []servedPlan
	q              quality
	dg             digest
	win            windows
	heapMiB        float64 // live heap at serveHeapOps plans (or at the end)
	heapOps        int
}

func newServePhase(maxOps int, cal *calibrator) *servePhase {
	return &servePhase{
		win:     newWindows(cal, serveWindowOps, 250, maxOps),
		planLat: make([]int64, 0, maxOps),
		fbLat:   make([]int64, 0, maxOps/4),
		served:  make([]servedPlan, 0, serveVerifyOps),
	}
}

type feedbackBody struct {
	Instance json.RawMessage `json:"instance"`
	User     string          `json:"user"`
	Items    []string        `json:"items"`
	Useful   bool            `json:"useful"`
}

type feedbackResponse struct {
	Applied int `json:"applied"`
}

// serveProbe is the traced run's per-op instrumentation: facade replay
// of each plan through mirror policies and overlays, and the probes of
// the layers under the walk.
type serveProbe struct {
	tr       *tracer
	mirrors  []*rlplanner.Policy
	probes   []*layerProbe
	overlays map[int]*rlplanner.Overlay
	fallback uint64
}

// run drives the op stream for d. With pb set, every op is also traced
// and replayed through the facade.
func (ph *servePhase) run(st *serveState, r *report, seed int64, d time.Duration, pb *serveProbe) {
	stream := newServeStream(seed, len(st.builtins))
	var (
		pr   planResponse
		fr   feedbackResponse
		ids  []string
		body = make([]byte, 0, 256)
		end  = time.Now().Add(d)
	)
	ph.win.begin(0)
	for i := 0; time.Now().Before(end) && len(ph.planLat) < cap(ph.planLat); i++ {
		op := stream.next()
		b := &st.builtins[op.inst]
		body = strconv.AppendInt(append(body[:0], b.planPrefix...), int64(op.user), 10)
		body = append(body, `"}`...)

		r.Ops["plan"]++
		fb0 := geo.FallbackTotal()
		t0 := time.Now()
		lat, err := st.c.call(http.MethodPost, "/api/plan", body, http.StatusOK, &pr)
		ph.planLat = append(ph.planLat, int64(lat))
		if pb != nil {
			pb.fallback += geo.FallbackTotal() - fb0
		}
		if err == nil {
			err = pr.check()
		}
		sp := servedPlan{ok: err == nil}
		if err != nil {
			r.fail("plan", "op %d: %v", i, err)
		} else {
			ids = pr.ids(ids)
			sp.hash, sp.score = planHash(ids), pr.Score
			ph.q.add(pr.Score, pr.SatisfiesConstraints)
		}
		if pb != nil && sp.ok {
			root := pb.tr.record("httpapi.plan", i, -1, t0, lat)
			pb.replay(r, root, op, ids, pr.Score)
		}

		if op.feedback && sp.ok {
			fbody, err := json.Marshal(feedbackBody{Instance: b.jsonName, User: "u" + strconv.Itoa(op.user), Items: ids, Useful: op.useful})
			if err != nil {
				r.fail("feedback", "op %d: encode: %v", i, err)
			} else {
				r.Ops["feedback"]++
				t1 := time.Now()
				lat, err := st.c.call(http.MethodPost, "/api/feedback", fbody, http.StatusOK, &fr)
				ph.fbLat = append(ph.fbLat, int64(lat))
				if err == nil && fr.Applied <= 0 {
					err = fmt.Errorf("feedback adjusted no transition")
				}
				if err != nil {
					r.fail("feedback", "op %d: %v", i, err)
				} else {
					sp.fbApplied = true
					if pb != nil {
						pb.tr.record("httpapi.feedback", i, -1, t1, lat)
						if err := pb.observe(op, ids); err != nil {
							r.fail("verify", "op %d: mirror feedback: %v", i, err)
						}
					}
				}
			}
		}
		if len(ph.served) < serveVerifyOps {
			ph.served = append(ph.served, sp)
			ph.dg.add(sp.hash)
		}
		if n := len(ph.planLat); ph.win.step(n) {
			if n == serveHeapOps {
				// The forced collection is not part of the timed phase.
				t := time.Now()
				ph.heap()
				end = end.Add(time.Since(t))
			}
			ph.win.begin(n)
		}
	}
	if ph.heapOps == 0 {
		ph.heap()
	}
}

func (ph *servePhase) heap() {
	own := 8*(cap(ph.planLat)+cap(ph.fbLat)) + int(unsafe.Sizeof(servedPlan{}))*cap(ph.served) + ph.win.bytes()
	ph.heapMiB, ph.heapOps = heapLiveMiB(own), len(ph.planLat)
}

// newServeProbe loads a mirror of every imported policy from the same
// artifact bytes the server imported.
func newServeProbe(st *serveState, tr *tracer, probes []*layerProbe) (*serveProbe, error) {
	pb := &serveProbe{tr: tr, probes: probes, overlays: map[int]*rlplanner.Overlay{}}
	for _, b := range st.builtins {
		pol, err := rlplanner.LoadPolicyArtifact(bytes.NewReader(b.artifact), b.inst, rlplanner.Options{})
		if err != nil {
			return nil, fmt.Errorf("mirror %s: %w", b.inst.Name(), err)
		}
		pb.mirrors = append(pb.mirrors, pol)
	}
	return pb, nil
}

// recommend is the facade call the handler made for the op: the user's
// overlay when the user has rated a plan, the bare policy otherwise.
func (pb *serveProbe) recommend(op serveOp) (*rlplanner.Plan, error) {
	return pb.mirrors[op.inst].RecommendWithOverlay("", pb.overlays[op.user])
}

func (pb *serveProbe) observe(op serveOp, ids []string) error {
	ov := pb.overlays[op.user]
	if ov == nil {
		var err error
		if ov, err = pb.mirrors[op.inst].NewOverlay(0); err != nil {
			return err
		}
		pb.overlays[op.user] = ov
	}
	plan := &rlplanner.Plan{}
	for _, id := range ids {
		plan.Steps = append(plan.Steps, rlplanner.PlanStep{ID: id})
	}
	_, err := ov.ObserveBinary(plan, op.useful, 0)
	return err
}

// replay re-runs a traced op through the facade and the layers below it.
func (pb *serveProbe) replay(r *report, root int, op serveOp, ids []string, score float64) {
	r.Ops["verify"]++
	t0 := time.Now()
	plan, err := pb.recommend(op)
	walk := pb.tr.replayed("sarsa.walk", root, time.Since(t0))
	if err == nil && (planHash(plan.IDs()) != planHash(ids) || plan.Score != score) {
		err = fmt.Errorf("facade plan %v (score %v) differs from served %v (score %v)", plan.IDs(), plan.Score, ids, score)
	}
	if err == nil {
		err = pb.probes[op.inst].probe(pb.tr, walk, ids, score)
	}
	if err != nil {
		r.fail("verify", "op %d: %v", pb.tr.spans[root].Op, err)
	}
}

// verify replays the first served plans through the facade, mirroring
// every feedback the server applied, and requires identical plans.
func (ph *servePhase) verify(st *serveState, r *report, seed int64) error {
	pb, err := newServeProbe(st, nil, nil)
	if err != nil {
		return err
	}
	stream := newServeStream(seed, len(st.builtins))
	for i, sp := range ph.served {
		op := stream.next()
		if !sp.ok {
			continue
		}
		r.Ops["verify"]++
		plan, err := pb.recommend(op)
		if err == nil && (planHash(plan.IDs()) != sp.hash || plan.Score != sp.score) {
			err = fmt.Errorf("facade plan %v (score %v) differs from the served plan (score %v)", plan.IDs(), plan.Score, sp.score)
		}
		if err != nil {
			r.fail("verify", "op %d: %v", i, err)
			continue
		}
		if op.feedback && sp.fbApplied {
			if err := pb.observe(op, plan.IDs()); err != nil {
				r.fail("verify", "op %d: mirror feedback: %v", i, err)
			}
		}
	}
	return nil
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func (ph *servePhase) endToEnd(r *report, tail float64) error {
	if err := ph.win.fill(r, ph.planLat, tail); err != nil {
		return err
	}
	if err := latencies(r, "feedback", ph.fbLat, tail); err != nil {
		return err
	}
	ph.q.fill(r)
	ph.dg.fill(r)
	return nil
}

func runServe(cfg config) (*report, error) {
	ctx := context.Background()
	r := newReport()
	cal := newCalibrator()
	ph := newServePhase(serveMaxOps(cfg.seconds), cal)
	d := time.Duration(cfg.seconds) * time.Second

	var probes []*layerProbe
	if cfg.trace {
		// Built before any set-up so the environment builds are cold.
		var err error
		if probes, err = builtinProbes(ctx, r); err != nil {
			return nil, err
		}
	}
	var train trainDelta
	t0 := engine.TrainStats()
	st, err := repeatSetup(r, cal, serveSetups, func() (*serveState, error) { return serveSetup(ctx) })
	if err != nil {
		return nil, err
	}
	train.add(t0, engine.TrainStats())

	u0 := snapshot()
	ph.run(st, r, cfg.seed, d, nil)
	u1 := snapshot()
	r.set("heap_live_mib", ph.heapMiB, "MiB")
	r.Notes["heap_live_ops"] = strconv.Itoa(ph.heapOps)
	phaseUsage(r, u0, u1, len(ph.planLat))
	if err := ph.endToEnd(r, serveTail); err != nil {
		return nil, err
	}
	if err := ph.verify(st, r, cfg.seed); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return r, nil
	}

	// Traced run: a fresh set-up, the same op stream, every op replayed.
	if st, err = serveSetup(ctx); err != nil {
		return nil, err
	}
	tr := newTracer()
	pb, err := newServeProbe(st, tr, probes)
	if err != nil {
		return nil, err
	}
	m0, err := serverMetrics(st.c)
	if err != nil {
		return nil, err
	}
	var env envDelta
	e0 := engine.EnvCacheStats()
	traced := newServePhase(serveMaxOps(cfg.seconds), cal)
	traced.run(st, r, cfg.seed, d, pb)
	env.add(e0, engine.EnvCacheStats())
	m1, err := serverMetrics(st.c)
	if err != nil {
		return nil, err
	}

	handler := tr.durations("httpapi.plan")
	plans := len(handler)
	var cache cacheDelta
	cache.add(m0, m1, plans)
	cache.fill(r)
	train.fill(r)
	env.fill(r)
	probeMetrics(r, tr, probes, plans)
	r.medianOf("httpapi.plan_self_us", tr.selfTimes("httpapi.plan"), "us")
	r.medianOf("httpapi.feedback_us", tr.durations("httpapi.feedback"), "us")
	r.set("httpapi.errors", float64(r.OpsFailed["plan"]+r.OpsFailed["feedback"]), "count")
	r.ratio("transfer.match_us", 0, 0, "us")
	r.medianOf("engine.train_ms", st.trainNs, "ms")
	r.medianOf("sarsa.walk_us", tr.durations("sarsa.walk"), "us")
	r.ratio("geo.fallbacks_per_plan", float64(pb.fallback), float64(plans), "count")
	var polBytes int
	for _, p := range pb.mirrors {
		polBytes += p.MemoryBytes()
	}
	r.set("qtable.policy_bytes", float64(polBytes), "B")
	r.ratio("qtable.overlay_bytes_per_user", float64(m1["overlay_bytes"]), float64(m1["overlay_users"]), "B")
	overhead(r, ph.planLat, handler)
	return r, tr.dump("serve-builtin", cfg.seed)
}
