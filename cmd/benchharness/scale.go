package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/httpapi"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// scaleConfig parameterizes the catalog-scale harness (-scale).
type scaleConfig struct {
	Sizes    []int
	Episodes int // 0 = a per-size budget that keeps every point seconds-long
	Seed     int64
	Serve    int // /api/plan requests per point
}

// scalePoint is one catalog size's measurements: generation, environment
// build (distance store included), training, the per-candidate data-plane
// step cost, end-to-end /api/plan latency, and the resident footprint of
// the three compressed structures next to their dense-layout equivalent.
type scalePoint struct {
	Items          int     `json:"items"`
	Topics         int     `json:"topics"`
	Episodes       int     `json:"episodes"`
	GenNs          int64   `json:"gen_ns"`
	EnvNs          int64   `json:"env_ns"`
	TrainNs        int64   `json:"train_ns"`
	EpisodesPerSec float64 `json:"episodes_per_sec"`
	StepNs         int64   `json:"step_ns"`
	RewardEvals    int     `json:"reward_evals"`
	ServeP50Ns     int64   `json:"serve_p50_ns"`
	QBytes         int     `json:"q_bytes"`
	QStored        int     `json:"q_stored"`
	QDense         bool    `json:"q_dense"`
	DistBytes      int     `json:"dist_bytes"`
	TopicsBytes    int     `json:"topics_bytes"`
	ResidentBytes  int     `json:"resident_bytes"`
	DenseBytes     int64   `json:"dense_equiv_bytes"`
}

// scaleRecord is the machine-readable scaling record written as
// BENCH_scale.json: one point per catalog size, items vs ns/step vs
// resident bytes vs train time.
type scaleRecord struct {
	Name       string       `json:"name"`
	Engine     string       `json:"engine"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Points     []scalePoint `json:"points"`
}

// scaleEpisodeBudget keeps every size point seconds-long: the per-episode
// cost is dominated by O(items) candidate-reward sweeps per step, so the
// episode budget shrinks inversely with the catalog.
func scaleEpisodeBudget(items int) int {
	e := 2_000_000 / items
	if e < 2 {
		e = 2
	}
	if e > 64 {
		e = 64
	}
	return e
}

// scaleBench measures one generate → train → serve pass per catalog
// size. Training and the environment go through the engine layer (the
// cached-environment path rlplannerd uses); serving goes through the
// real HTTP stack — the instance spec is uploaded to an in-process
// server, the trained artifact imported, and /api/plan driven against
// the warm cache — so the record covers the datagen → train → /api/plan
// pipeline end to end.
func scaleBench(cfg scaleConfig) (scaleRecord, error) {
	rec := scaleRecord{
		Name:       "scale",
		Engine:     "sarsa",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
	}
	if cfg.Serve <= 0 {
		cfg.Serve = 10
	}
	ctx := context.Background()
	for _, n := range cfg.Sizes {
		pt, err := scalePointAt(ctx, n, cfg)
		if err != nil {
			return rec, fmt.Errorf("scale %d: %w", n, err)
		}
		rec.Points = append(rec.Points, pt)
		fmt.Printf("scale: %6d items: gen %s, env %s, train %s (%d episodes, %.0f ep/s), step %dns, plan p50 %s, resident %s (q %s + dist %s + topics %s; dense layout %s)\n",
			pt.Items, time.Duration(pt.GenNs).Round(time.Millisecond),
			time.Duration(pt.EnvNs).Round(time.Millisecond),
			time.Duration(pt.TrainNs).Round(time.Millisecond),
			pt.Episodes, pt.EpisodesPerSec, pt.StepNs,
			time.Duration(pt.ServeP50Ns).Round(time.Microsecond),
			fmtBytes(int64(pt.ResidentBytes)), fmtBytes(int64(pt.QBytes)),
			fmtBytes(int64(pt.DistBytes)), fmtBytes(int64(pt.TopicsBytes)),
			fmtBytes(pt.DenseBytes))
	}
	return rec, nil
}

func scalePointAt(ctx context.Context, n int, cfg scaleConfig) (scalePoint, error) {
	pt := scalePoint{Items: n}
	params := synth.Params{
		Name:  fmt.Sprintf("synthetic-%d", n),
		Items: n,
		Geo:   true,
		Seed:  cfg.Seed,
	}

	t0 := time.Now()
	inst, err := synth.Generate(params)
	if err != nil {
		return pt, err
	}
	pt.GenNs = time.Since(t0).Nanoseconds()
	pt.Topics = inst.Catalog.Vocabulary().Len()

	episodes := cfg.Episodes
	if episodes <= 0 {
		episodes = scaleEpisodeBudget(n)
	}
	opts := core.Options{Episodes: episodes, Seed: cfg.Seed}

	t0 = time.Now()
	env, err := engine.EnvFor(ctx, inst, opts)
	if err != nil {
		return pt, err
	}
	pt.EnvNs = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	pol, err := engine.Train(ctx, "sarsa", inst, opts)
	if err != nil {
		return pt, err
	}
	pt.TrainNs = time.Since(t0).Nanoseconds()
	pt.Episodes = engine.Episodes(pol)
	pt.EpisodesPerSec = float64(pt.Episodes) / (float64(pt.TrainNs) / 1e9)

	// Resident footprint of the three data-plane structures, from their
	// own accounting; the dense-layout equivalent (float64 n×n Q, float32
	// n×n distance matrix, vocabulary-wide topic words) is arithmetic.
	vp, ok := pol.(engine.ValuePolicy)
	if !ok {
		return pt, fmt.Errorf("sarsa policy carries no values")
	}
	q := vp.Values().Q
	pt.QBytes = engine.PolicyBytes(pol)
	pt.QStored = q.Stored()
	pt.QDense = q.IsDense()
	pt.DistBytes = env.DistStoreBytes()
	for i := 0; i < inst.Catalog.Len(); i++ {
		pt.TopicsBytes += inst.Catalog.At(i).Topics.SizeBytes()
	}
	pt.ResidentBytes = pt.QBytes + pt.DistBytes + pt.TopicsBytes
	nn := int64(n) * int64(n)
	pt.DenseBytes = 8*nn + 4*nn + int64(n)*int64((pt.Topics+63)/64)*8

	// Data-plane step cost: greedy episodes over the live environment,
	// one op per candidate-reward evaluation (the same shape as the
	// committed hotpath records, comparable across sizes).
	evals, ns, err := scaleStepBench(inst, env)
	if err != nil {
		return pt, err
	}
	pt.RewardEvals = evals
	pt.StepNs = ns

	// End-to-end serve: upload the instance spec and the trained
	// artifact to an in-process HTTP server, then time /api/plan against
	// the warm policy cache.
	p50, err := scaleServe(inst.Name, params, pol, cfg.Serve)
	if err != nil {
		return pt, err
	}
	pt.ServeP50Ns = p50
	return pt, nil
}

// scaleStepBench runs greedy reward-maximizing episodes until enough
// candidate evaluations accumulate for a stable per-op figure.
func scaleStepBench(inst *dataset.Instance, env *mdp.Env) (int, int64, error) {
	ep, err := env.Start(inst.StartIndex())
	if err != nil {
		return 0, 0, err
	}
	const targetEvals = 200_000
	evals := 0
	var cands []int
	t0 := time.Now()
	for evals < targetEvals {
		if err := ep.Reset(inst.StartIndex()); err != nil {
			return 0, 0, err
		}
		for !ep.Done() {
			cands = ep.AppendCandidates(cands[:0])
			if len(cands) == 0 {
				break
			}
			best, bestR := cands[0], -1.0
			for _, c := range cands {
				if r := ep.Reward(c); r > bestR {
					best, bestR = c, r
				}
				evals++
			}
			ep.Step(best)
		}
	}
	ns := time.Since(t0).Nanoseconds()
	if evals == 0 {
		return 0, 0, fmt.Errorf("no reward evaluations ran")
	}
	return evals, ns / int64(evals), nil
}

// scaleServe drives the real HTTP pipeline for one instance: the public
// generator reproduces the same catalog (equal params generate equal
// instances, so the artifact's fingerprint matches), the spec uploads
// via POST /api/instances, the artifact via /api/policies/import, and
// the warm /api/plan path is timed.
func scaleServe(name string, params synth.Params, pol engine.Policy, requests int) (int64, error) {
	pub, err := rlplanner.GenerateInstance(rlplanner.GenParams{
		Name:  params.Name,
		Items: params.Items,
		Geo:   true,
		Seed:  params.Seed,
	})
	if err != nil {
		return 0, err
	}
	api := httpapi.New()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	client := srv.Client()

	var spec bytes.Buffer
	if err := pub.WriteJSON(&spec); err != nil {
		return 0, err
	}
	if err := scalePost(client, srv.URL+"/api/instances", &spec, http.StatusCreated); err != nil {
		return 0, fmt.Errorf("upload instance: %w", err)
	}

	var artifact bytes.Buffer
	if err := pol.Save(&artifact); err != nil {
		return 0, err
	}
	if err := scalePost(client, srv.URL+"/api/policies/import?instance="+name, &artifact, http.StatusCreated); err != nil {
		return 0, fmt.Errorf("import artifact: %w", err)
	}

	body, err := json.Marshal(map[string]string{"instance": name})
	if err != nil {
		return 0, err
	}
	lat := make([]int64, 0, requests)
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		if err := scalePost(client, srv.URL+"/api/plan", bytes.NewReader(body), http.StatusOK); err != nil {
			return 0, fmt.Errorf("plan: %w", err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], nil
}

// scalePost posts body and checks the status, draining the response.
func scalePost(client *http.Client, url string, body interface{ Read([]byte) (int, error) }, want int) error {
	resp, err := client.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d (want %d): %.200s", resp.StatusCode, want, sink)
	}
	return nil
}

// checkScaleBaseline compares a fresh scale record against a committed
// baseline and fails when any matching size's resident bytes grew past
// 1.5× — the CI guardrail for the compressed data plane's memory model.
func checkScaleBaseline(path string, rec scaleRecord) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scale baseline: %w", err)
	}
	var base scaleRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("scale baseline %s: %w", path, err)
	}
	byItems := make(map[int]scalePoint, len(base.Points))
	for _, pt := range base.Points {
		byItems[pt.Items] = pt
	}
	matched := 0
	for _, pt := range rec.Points {
		b, ok := byItems[pt.Items]
		if !ok || b.ResidentBytes <= 0 {
			continue
		}
		matched++
		if float64(pt.ResidentBytes) > 1.5*float64(b.ResidentBytes) {
			return fmt.Errorf("scale resident-bytes regression at %d items: %s now vs %s baseline (>1.5x)",
				pt.Items, fmtBytes(int64(pt.ResidentBytes)), fmtBytes(int64(b.ResidentBytes)))
		}
	}
	if matched == 0 {
		return fmt.Errorf("scale baseline %s: no catalog size in common with this run", path)
	}
	return nil
}

// writeScaleRecord writes rec to dir/BENCH_scale.json.
func writeScaleRecord(dir string, rec scaleRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_scale.json"), append(data, '\n'), 0o644)
}

// fmtBytes renders a byte count in the nearest binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
