// Command rlbench is the repository benchmark. It drives one of three
// seeded, single-process workloads through the public API of each layer
// with one closed-loop client, checks every output, and prints one JSON
// result line:
//
//	rlbench --workload serve-builtin --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// A detail line before the result names every metric of the workload
// with its unit (and, for ratios, its base), the op counts split by op
// type, the plan digest, the seed and the host fingerprint. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// config is what every workload run receives from the command line.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"serve-builtin", runServe},
	{"plan-8k", runPlan8k},
	{"cold-train", runCold},
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-builtin, plan-8k or cold-train")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rlbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "rlbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.Workload, rep.Seed, rep.Trace, rep.Host = w.name, cfg.seed, cfg.trace, hostInfo()

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res, err := rep.result(specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := printJSON(map[string]*report{"detail": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "rlbench:", err)
		os.Exit(1)
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "rlbench:", err)
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// spec is one metric BENCHMARK.json lists, with the unit it is printed in.
type spec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json lists, in order;
// TestSpecsMatchBenchmarkJSON keeps the two in step.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"plan_p50_ms", "ms"},
	{"plan_p90_ms", "ms"},
	{"plans_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mib", "MiB"},
	{"plan_score_mean", "score"},
	{"plan_valid_ratio", "ratio"},
}

var perLayer = []spec{
	{"httpapi.plan_self_us", "us"},
	{"httpapi.feedback_us", "us"},
	{"httpapi.errors", "count"},
	{"httpapi.derive_scans_per_cold_start", "count"},
	{"httpapi.warm_start_ratio", "ratio"},
	{"transfer.match_us", "us"},
	{"engine.train_ms", "ms"},
	{"engine.env_build_ms", "ms"},
	{"engine.policy_cache_hit_ratio", "ratio"},
	{"engine.policy_cache_size", "count"},
	{"engine.env_cache_hit_ratio", "ratio"},
	{"engine.train_runs", "count"},
	{"sarsa.walk_us", "us"},
	{"sarsa.episodes_per_s", "1/s"},
	{"mdp.step_ns", "ns"},
	{"reward.evals_per_plan", "count"},
	{"geo.fallbacks_per_plan", "count"},
	{"geo.store_bytes", "B"},
	{"qtable.policy_bytes", "B"},
	{"qtable.overlay_bytes_per_user", "B"},
	{"eval.plan_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.ops", "count"},
}

// metric is one reported figure. Base is the denominator of a ratio or
// per-op figure, so every ratio is given with its base.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  *int64  `json:"base,omitempty"`
}

// report is everything one run measured: the detail line prints it
// whole, the result line a fixed subset of its metrics.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Digest    string            `json:"plan_digest"`
	DigestOps int               `json:"plan_digest_ops"`
	Ops       map[string]int    `json:"ops"`
	OpsFailed map[string]int    `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Windows has each measurement window's raw and normalised p50 (ms)
	// and its mean normalisation factor, in run order.
	Windows [][3]float64 `json:"windows_p50_raw_norm_factor,omitempty"`
	// SetupMs has each set-up's raw duration, in run order.
	SetupMs []float64 `json:"setup_ms,omitempty"`
}

func newReport() *report {
	return &report{
		Ops:       map[string]int{},
		OpsFailed: map[string]int{},
		Notes:     map[string]string{},
		Metrics:   map[string]metric{},
	}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// ratio records num/den with den as its base; an empty base reports 0.
func (r *report) ratio(name string, num, den float64, unit string) {
	base := int64(den)
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Base: &base}
}

// medianOf records the median of ns samples in unit ("us" or "ms"),
// with the sample count as its base; no samples report 0.
func (r *report) medianOf(name string, ns []int64, unit string) {
	scale := 1e3
	if unit == "ms" {
		scale = 1e6
	}
	base := int64(len(ns))
	r.Metrics[name] = metric{Value: float64(median(ns)) / scale, Unit: unit, Base: &base}
}

// fail records one failed op of the given type with the reason; only the
// first few reasons are kept.
func (r *report) fail(op string, format string, args ...any) {
	r.OpsFailed[op]++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, op+": "+fmt.Sprintf(format, args...))
	}
}

// result is the last output line, with exactly the keys correct,
// attempted, failed and metrics.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// result selects the listed metrics; a missing one, or one measured in
// another unit than its spec names, is a benchmark bug.
func (r *report) result(specs []spec) (result, error) {
	res := result{Metrics: map[string]map[string]any{}}
	for _, n := range r.Ops {
		res.Attempted += n
	}
	for _, n := range r.OpsFailed {
		res.Failed += n
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, sp := range specs {
		m, ok := r.Metrics[sp.name]
		switch {
		case !ok:
			return res, fmt.Errorf("metric %s not measured", sp.name)
		case m.Unit != sp.unit:
			return res, fmt.Errorf("metric %s measured in %s, listed in %s", sp.name, m.Unit, sp.unit)
		}
		res.Metrics[sp.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return res, nil
}
