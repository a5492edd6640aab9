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
	"testing"
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
			pol, err := Train(context.Background(), inst, "sarsa", Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", inst.Name(), seed, err)
			}
			starts := []string{""}
			if si == 0 {
				for _, it := range inst.Items() {
					starts = append(starts, it.ID)
				}
			}
			out = append(out, goldenCase{
				Name:  fmt.Sprintf("%s/sarsa/seed%d", inst.Name(), seed),
				Plans: recommendAll(t, pol, starts),
			})
		}
	}
	return out
}

// scaleGoldenCases covers the generated geo catalogs the data plane
// switches representation on: 8192 items with the generator's unbounded
// distance budget, and 2048 items under a binding 3 km budget (above
// the distance-matrix cap, so legs are exact Haversine). Each case
// serves 64 starts spread evenly over the catalog.
func scaleGoldenCases(t *testing.T) []goldenCase {
	specs := []struct {
		items int
		maxKm float64
	}{
		{8192, 0},
		{2048, 3},
	}
	var out []goldenCase
	for _, sp := range specs {
		inst, err := GenerateInstance(GenParams{Name: fmt.Sprintf("synthetic-%d", sp.items), Items: sp.items, Geo: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 50, Seed: 1, MaxDistanceKm: sp.maxKm})
		if err != nil {
			t.Fatalf("%d items: %v", sp.items, err)
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
		out = append(out, goldenCase{Name: name, Plans: recommendAll(t, pol, starts)})
	}
	return out
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
// catalogs.
func TestGoldenPlans(t *testing.T) {
	for _, g := range []struct {
		file  string
		cases func(*testing.T) []goldenCase
	}{
		{"golden_builtin_plans.json", builtinGoldenCases},
		{"golden_scale_plans.json", scaleGoldenCases},
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
