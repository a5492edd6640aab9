package rlplanner

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/rlplanner/rlplanner/internal/engine"
)

// updateGolden rewrites the golden plan fixtures under testdata/ from
// the current code instead of asserting against them:
//
//	go test -run TestGoldenPlans -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden plans")

// goldenPlan is one recommended plan as the fixtures record it.
type goldenPlan struct {
	Start string   `json:"start"`
	IDs   []string `json:"ids"`
	Score float64  `json:"score"`
	Valid bool     `json:"valid"`
}

// goldenCase is one trained policy and the plans it serves.
type goldenCase struct {
	Name  string       `json:"name"`
	Plans []goldenPlan `json:"plans"`
}

// goldenSeeds are the training seeds the built-in fixtures pin.
var goldenSeeds = []int64{1, 7}

// builtinGoldenCases trains SARSA on every built-in instance at each
// golden seed and records the plan from the default start; at the first
// seed it also records the plan from every item of the catalog.
func builtinGoldenCases(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, inst := range Instances() {
		for si, seed := range goldenSeeds {
			pol := builtinGoldenPolicy(t, inst, "sarsa", seed)
			starts := []string{""}
			if si == 0 {
				starts = allStarts(inst)
			}
			out = append(out, goldenCase{
				Name:  fmt.Sprintf("%s/sarsa/seed%d", inst.Name(), seed),
				Plans: recommendAll(t, pol, starts),
			})
		}
	}
	return out
}

var (
	builtinMu       sync.Mutex
	builtinPolicies = map[string]*Policy{}
)

// builtinGoldenPolicy trains engine on a built-in instance at seed once
// per test binary; the guided and unguided fixtures both serve from it.
func builtinGoldenPolicy(t *testing.T, inst *Instance, eng string, seed int64) *Policy {
	key := fmt.Sprintf("%s/%s/seed%d", inst.Name(), eng, seed)
	builtinMu.Lock()
	defer builtinMu.Unlock()
	if pol, ok := builtinPolicies[key]; ok {
		return pol
	}
	pol, err := Train(context.Background(), inst, eng, Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	builtinPolicies[key] = pol
	return pol
}

// scaleGoldenCases covers the generated geo catalogs the data plane
// switches representation on: 8192 items with the generator's unbounded
// distance budget, and 2048 items under a binding 3 km budget (above
// the distance-matrix cap, so legs are exact Haversine). Each case
// serves 64 starts spread evenly over the catalog.
func scaleGoldenCases(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, sc := range scaleGoldenPolicies(t) {
		out = append(out, goldenCase{Name: sc.name, Plans: recommendAll(t, sc.pol, sc.starts)})
	}
	return out
}

// scalePolicy is one trained scale catalog and the starts it serves.
type scalePolicy struct {
	name   string
	pol    *Policy
	starts []string
}

var (
	scaleOnce     sync.Once
	scalePolicies []scalePolicy
	scaleErr      error
)

// scaleGoldenPolicies trains the scale catalogs once per test binary;
// the guided and unguided fixtures both serve from them.
func scaleGoldenPolicies(t *testing.T) []scalePolicy {
	scaleOnce.Do(func() {
		specs := []struct {
			items int
			maxKm float64
		}{
			{8192, 0},
			{2048, 3},
		}
		for _, sp := range specs {
			inst, err := GenerateInstance(GenParams{Name: fmt.Sprintf("synthetic-%d", sp.items), Items: sp.items, Geo: true, Seed: 1})
			if err != nil {
				scaleErr = err
				return
			}
			pol, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 50, Seed: 1, MaxDistanceKm: sp.maxKm})
			if err != nil {
				scaleErr = fmt.Errorf("%d items: %w", sp.items, err)
				return
			}
			items := inst.Items()
			var starts []string
			for k := 0; k < 64; k++ {
				starts = append(starts, items[k*len(items)/64].ID)
			}
			name := fmt.Sprintf("synthetic-%d/unbounded", sp.items)
			if sp.maxKm > 0 {
				name = fmt.Sprintf("synthetic-%d/%gkm", sp.items, sp.maxKm)
			}
			scalePolicies = append(scalePolicies, scalePolicy{name: name, pol: pol, starts: starts})
		}
	})
	if scaleErr != nil {
		t.Fatal(scaleErr)
	}
	return scalePolicies
}

// allStarts is the default start followed by every item of the catalog.
func allStarts(inst *Instance) []string {
	starts := []string{""}
	for _, it := range inst.Items() {
		starts = append(starts, it.ID)
	}
	return starts
}

// engineGoldenCases pins the other value-based engines: Q-learning and
// value iteration on every built-in instance at the first golden seed,
// served from the default start and from every item.
func engineGoldenCases(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, inst := range Instances() {
		for _, eng := range []string{"qlearning", "valueiter"} {
			seed := goldenSeeds[0]
			pol := builtinGoldenPolicy(t, inst, eng, seed)
			out = append(out, goldenCase{
				Name:  fmt.Sprintf("%s/%s/seed%d", inst.Name(), eng, seed),
				Plans: recommendAll(t, pol, allStarts(inst)),
			})
		}
	}
	return out
}

// unguidedGoldenCases pins Algorithm 1's unguided recommendation walk
// (sarsa.Policy.Recommend: plain Q arg-max, Q ties broken by reward),
// the walk the planner's raw plans and the guidance ablation use. It
// covers every value-based engine on every built-in from every start,
// and the scale catalogs from their 64 starts.
func unguidedGoldenCases(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, inst := range Instances() {
		for _, eng := range []string{"sarsa", "qlearning", "valueiter"} {
			seed := goldenSeeds[0]
			pol := builtinGoldenPolicy(t, inst, eng, seed)
			out = append(out, goldenCase{
				Name:  fmt.Sprintf("%s/%s/seed%d/unguided", inst.Name(), eng, seed),
				Plans: recommendUnguided(t, pol, allStarts(inst)),
			})
		}
	}
	for _, sc := range scaleGoldenPolicies(t) {
		out = append(out, goldenCase{Name: sc.name + "/unguided", Plans: recommendUnguided(t, sc.pol, sc.starts)})
	}
	return out
}

// recommendUnguided serves each start through the value policy's
// unguided walk and scores the plan the way Policy.Recommend does.
func recommendUnguided(t *testing.T, pol *Policy, starts []string) []goldenPlan {
	vp, ok := pol.p.(engine.ValuePolicy)
	if !ok {
		t.Fatalf("engine %s has no action values", pol.Engine())
	}
	plans := make([]goldenPlan, 0, len(starts))
	for _, s := range starts {
		start := vp.Start()
		if s != "" {
			idx, ok := pol.inst.inner.Catalog.Index(s)
			if !ok {
				t.Fatalf("unknown start %q", s)
			}
			start = idx
		}
		seq, err := vp.Values().Recommend(vp.Env(), start)
		if err != nil {
			t.Fatalf("start %q: %v", s, err)
		}
		plan := newPlan(pol.inst, pol.p.Hard(), seq)
		plans = append(plans, goldenPlan{Start: s, IDs: plan.IDs(), Score: plan.Score, Valid: plan.SatisfiesConstraints})
	}
	return plans
}

func recommendAll(t *testing.T, pol *Policy, starts []string) []goldenPlan {
	plans := make([]goldenPlan, 0, len(starts))
	for _, s := range starts {
		plan, err := pol.Recommend(s)
		if err != nil {
			t.Fatalf("start %q: %v", s, err)
		}
		plans = append(plans, goldenPlan{Start: s, IDs: plan.IDs(), Score: plan.Score, Valid: plan.SatisfiesConstraints})
	}
	return plans
}

// encodeGolden writes the fixtures one plan per line, so a changed plan
// shows up as one changed line in a diff.
func encodeGolden(cases []goldenCase) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, c := range cases {
		name, err := json.Marshal(c.Name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, " {\"name\": %s, \"plans\": [\n", name)
		for j, p := range c.Plans {
			line, err := json.Marshal(p)
			if err != nil {
				return nil, err
			}
			b.WriteString("  ")
			b.Write(line)
			if j < len(c.Plans)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString(" ]}")
		if i < len(cases)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// TestGoldenPlans pins served plans bit for bit against fixtures
// committed under testdata/: item ids, score and constraint
// satisfaction, for the built-in instances and the generated scale
// catalogs, across the value-based engines and both recommendation
// walks.
func TestGoldenPlans(t *testing.T) {
	for _, g := range []struct {
		file  string
		cases func(*testing.T) []goldenCase
	}{
		{"golden_builtin_plans.json", builtinGoldenCases},
		{"golden_scale_plans.json", scaleGoldenCases},
		{"golden_engine_plans.json", engineGoldenCases},
		{"golden_unguided_plans.json", unguidedGoldenCases},
	} {
		t.Run(g.file, func(t *testing.T) {
			path := filepath.Join("testdata", g.file)
			got := g.cases(t)
			if *updateGolden {
				data, err := encodeGolden(got)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want []goldenCase
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d cases, golden has %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name || len(got[i].Plans) != len(want[i].Plans) {
					t.Fatalf("case %d: got %s with %d plans, golden %s with %d",
						i, got[i].Name, len(got[i].Plans), want[i].Name, len(want[i].Plans))
				}
				for j, w := range want[i].Plans {
					if g := got[i].Plans[j]; !reflect.DeepEqual(g, w) {
						t.Errorf("%s start %q:\n got %+v\nwant %+v", want[i].Name, w.Start, g, w)
					}
				}
			}
		})
	}
}
