package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		p    float64
		n    int
		ok   bool
		want int64
	}{
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.99, 2500, true, 2475},
		{0.9, 99, false, 0},
		{0.9, 100, true, 90},
		{0.9, 192, true, 173},
		{0.5, 19, false, 0},
		{0.5, 20, true, 10},
		{0.5, 0, false, 0},
	} {
		got, ok := percentile(sorted(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %d, %v; want %d, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-int(math.Ceil(tc.p*float64(tc.n))) < minBeyond {
			t.Errorf("p%g of %d samples reported with fewer than %d beyond it", tc.p*100, tc.n, minBeyond)
		}
	}
}

func TestLatenciesRefusesAThinTail(t *testing.T) {
	r := newReport()
	if err := latencies(r, "plan", make([]int64, 999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	r = newReport()
	if err := latencies(r, "plan", make([]int64, 1000), 0.99); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan_p50_ms", "plan_p99_ms"} {
		if m, ok := r.Metrics[name]; !ok || m.Base == nil || *m.Base != 1000 {
			t.Errorf("%s = %+v, want it with base 1000", name, m)
		}
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	const n = 5000
	serve := func(seed int64) []serveOp {
		s := newServeStream(seed, 6)
		out := make([]serveOp, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	starts := func(seed int64) []int {
		s := newStartStream(seed, 8192)
		out := make([]int, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	cold := func(seed int64) []coldOp {
		s := newColdStream(seed, 6)
		out := make([]coldOp, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !slices.Equal(serve(7), serve(7)) || slices.Equal(serve(7), serve(8)) {
		t.Error("serve-builtin stream is not a function of its seed alone")
	}
	if !slices.Equal(starts(7), starts(7)) || slices.Equal(starts(7), starts(8)) {
		t.Error("plan-8k stream is not a function of its seed alone")
	}
	if !slices.Equal(cold(7), cold(7)) || slices.Equal(cold(7), cold(8)) {
		t.Error("cold-train stream is not a function of its seed alone")
	}
}

func TestStreamShapes(t *testing.T) {
	s := newServeStream(1, 6)
	feedback := 0
	for i := 0; i < 100000; i++ {
		op := s.next()
		if op.user < 0 || op.user >= serveUsers || op.inst != op.user%6 {
			t.Fatalf("op %d: user %d pinned to instance %d", i, op.user, op.inst)
		}
		if op.feedback {
			feedback++
		}
	}
	if feedback < 9000 || feedback > 11000 {
		t.Errorf("%d feedback ops in 100000, want about a tenth", feedback)
	}

	// Each panel cycle visits the same panelSize evenly spaced items.
	for _, seed := range []int64{1, 2} {
		st := newStartStream(seed, 8192)
		for cycle := 0; cycle < 2; cycle++ {
			seen := map[int]bool{}
			for i := 0; i < panelSize; i++ {
				v := st.next()
				if v%(8192/panelSize) != 0 || seen[v] {
					t.Fatalf("seed %d cycle %d: start %d off the panel or repeated", seed, cycle, v)
				}
				seen[v] = true
			}
		}
	}

	c := newColdStream(1, 6)
	seeds := map[int64]bool{}
	for i := 0; i < coldEpochOps; i++ {
		op := c.next()
		if op.inst != i%6 || seeds[op.seed] {
			t.Fatalf("cold op %d: instance %d, seed %d reused=%v", i, op.inst, op.seed, seeds[op.seed])
		}
		seeds[op.seed] = true
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Parent: -1, Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"contained child adds nothing", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child past the parent is clipped", []span{{Start: 180, End: 260}}, 80},
		{"child outside the parent is ignored", []span{{Start: 300, End: 400}}, 100},
		{"children covering all leave none", []span{{Start: 90, End: 150}, {Start: 150, End: 210}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestReplayedChildIsSubtractedFromItsParent(t *testing.T) {
	tr := newTracer()
	root := tr.record("httpapi.plan", 0, -1, tr.t0.Add(time.Millisecond), 60*time.Microsecond)
	tr.replayed("sarsa.walk", root, 45*time.Microsecond)
	self := tr.selfTimes("httpapi.plan")
	if len(self) != 1 || self[0] != int64(15*time.Microsecond) {
		t.Fatalf("self times %v, want [15µs]", self)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(sp.name) || !unitRE.MatchString(sp.unit) {
			t.Errorf("metric %q with unit %q is not a valid name and unit", sp.name, sp.unit)
		}
		if seen[sp.name] {
			t.Errorf("metric %q listed twice", sp.name)
		}
		seen[sp.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q is not a valid name", w.name)
		}
	}
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []spec) {
		var a, b []string
		for _, m := range listed {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, sp := range specs {
			b = append(b, sp.name+" "+sp.unit)
		}
		if !slices.Equal(a, b) {
			t.Errorf("%s: BENCHMARK.json lists\n%s\nthe benchmark prints\n%s", kind, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestResultLine(t *testing.T) {
	r := newReport()
	r.Ops["plan"], r.Ops["verify"] = 10, 4
	r.fail("verify", "op %d: mismatch", 3)
	for _, sp := range endToEnd {
		r.set(sp.name, 1.5, sp.unit)
	}
	res, err := r.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s, want exactly correct, attempted, failed and metrics", b)
	}
	if res.Correct || res.Attempted != 14 || res.Failed != 1 {
		t.Errorf("result %+v, want 14 attempted, 1 failed, not correct", res)
	}

	delete(r.Metrics, "setup_s")
	if _, err := r.result(endToEnd); err == nil {
		t.Error("a missing metric did not fail the result")
	}
	r.set("setup_s", 1, "ms")
	if _, err := r.result(endToEnd); err == nil {
		t.Error("a metric in the wrong unit did not fail the result")
	}
}

func TestWindowsNormaliseBlockByBlock(t *testing.T) {
	// One window of 200 ops in two blocks. The kernel took half its
	// reference time at both ends of the first block (the host was twice
	// as fast as the reference) and half, then all of it, at the ends
	// of the second.
	w := windows{size: 200, every: 100}
	w.probes = []probe{
		{ops: 0, k: refKernel / 2, first: true},
		{ops: 100, k: refKernel / 2, wall: 100 * time.Millisecond, cpu: 100 * time.Millisecond},
		{ops: 200, k: refKernel, wall: 100 * time.Millisecond, cpu: 100 * time.Millisecond, last: true},
		{ops: 200, k: refKernel, first: true}, // an open window is dropped
	}
	lat := make([]int64, 200)
	for i := range lat {
		lat[i] = int64(time.Millisecond)
	}
	r := newReport()
	if err := w.fill(r, lat); err != nil {
		t.Fatal(err)
	}
	// Block factors are 2 and 4/3 (the mean kernel time around the
	// second block is 3/4 of the reference); normalised latencies are
	// whole nanoseconds.
	want := map[string]float64{
		"raw.plan_p50_ms":   1,
		"plan_p50_ms":       4.0 / 3,
		"plan_p90_ms":       2,
		"raw.plans_per_s":   1000,
		"plans_per_s":       200 / (0.2 + 0.1*4/3),
		"raw.cpu_ms_per_op": 1,
		"cpu_ms_per_op":     (200 + 100*4.0/3) / 200,
	}
	for name, v := range want {
		m := r.Metrics[name]
		if math.Abs(m.Value-v) > 1e-6*v || m.Base == nil || *m.Base != 1 {
			t.Errorf("%s = %+v, want %v over 1 window", name, m, v)
		}
	}
}
