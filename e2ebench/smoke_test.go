package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
)

// TestSmoke runs every workload for one second, untraced and traced,
// with the output checks on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	for _, wl := range []string{"release_fresh", "read_mix", "ingest", "gateway_read"} {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(config{
					workload: wl, seed: 7, seconds: 1, trace: traced,
					setups: 1, workDir: t.TempDir(), spansDir: t.TempDir(),
				}, &out, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, got.Value)
					}
				}
				if !traced {
					return
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				switch wl {
				case "release_fresh":
					if v("engine.computed_frac") != 1 {
						t.Errorf("engine.computed_frac = %g, want 1", v("engine.computed_frac"))
					}
				case "read_mix", "gateway_read":
					if v("engine.cache_hit_frac") != 1 {
						t.Errorf("engine.cache_hit_frac = %g, want 1", v("engine.cache_hit_frac"))
					}
				case "ingest":
					if f := v("consistency.nodes_estimated_frac"); f <= 0 || f >= 0.01 {
						t.Errorf("consistency.nodes_estimated_frac = %g, want in (0, 0.01)", f)
					}
					if v("engine.incremental_frac") != 1 {
						t.Errorf("engine.incremental_frac = %g, want 1", v("engine.incremental_frac"))
					}
				}
			})
		}
	}
}

// TestChecksCatchMismatch pins that the output checks fail on a wrong
// artifact or a wrong answer.
func TestChecksCatchMismatch(t *testing.T) {
	in, err := makeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := hcoc.ReleaseSparse(in.tree, localOptions(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hcoc.WriteReleaseSparse(&buf, rel, releaseEpsilon); err != nil {
		t.Fatal(err)
	}
	if err := sameArtifact(buf.Bytes(), in.tree, rel); err != nil {
		t.Fatalf("identical artifact rejected: %v", err)
	}
	other, err := hcoc.ReleaseSparse(in.tree, localOptions(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArtifact(buf.Bytes(), in.tree, other); err == nil {
		t.Error("an artifact of another seed passed the check")
	}

	s := rel[in.nodes[0]]
	med, err := hcoc.MedianSparse(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := client.NodeReport{Groups: s.Groups(), People: s.People(), Median: med}
	if err := checkReport(s, nil, 0, rep); err != nil {
		t.Fatalf("right report rejected: %v", err)
	}
	rep.People++
	if err := checkReport(s, nil, 0, rep); err == nil {
		t.Error("a wrong people count passed the check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists and workloads in
// step with the program.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestEstimateReplay pins the per-layer replay's copy of the estimator's
// draw rule and consistency's per-node seed. On the benchmark's tree,
// the replayed noisy vector, L1-fitted, clamped to [0, G] and rounded,
// must give the runs estimator.EstimateRuns gives. On a one-level tree,
// whose release is its root's estimate, it must give the released
// histogram.
func TestEstimateReplay(t *testing.T) {
	in, err := makeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	ys := make([]float64, releaseK)
	replayed := func(tree *hcoc.Tree, n *hierarchy.Node) hcoc.SparseHistogram {
		scale := float64(tree.Depth()) / releaseEpsilon
		if got := noisyCumulative(ys, n.Hist, noise.New(nodeSeed(seed, n.Path)), scale); got != releaseK+1 {
			t.Fatalf("%s: %d draws, want K+1 = %d", n.Path, got, releaseK+1)
		}
		fit := isotonic.ClampBox(isotonic.FitL1InPlace(ys), 0, float64(n.G()))
		var out hcoc.SparseHistogram
		prev := int64(0)
		for i, z := range fit {
			if est := int64(z + 0.5); est > prev {
				out = append(out, hcoc.SparseRun{Size: int64(i), Count: est - prev})
				prev = est
			}
		}
		if prev < n.G() {
			out = append(out, hcoc.SparseRun{Size: releaseK, Count: n.G() - prev})
		}
		return out
	}

	nodes := in.tree.Nodes()
	for _, n := range []*hierarchy.Node{nodes[0], nodes[1], nodes[len(nodes)/2], nodes[len(nodes)-1]} {
		runs, err := estimator.EstimateRuns(estimator.MethodHc, n.Hist,
			estimator.Params{Epsilon: releaseEpsilon / float64(in.tree.Depth()), K: releaseK},
			noise.New(nodeSeed(seed, n.Path)))
		if err != nil {
			t.Fatal(err)
		}
		var want hcoc.SparseHistogram
		for _, r := range runs {
			want = append(want, hcoc.SparseRun{Size: r.Size, Count: r.Count})
		}
		if got := replayed(in.tree, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed runs %v, estimator.EstimateRuns %v", n.Path, got, want)
		}
	}

	flatGroups := make([]hcoc.Group, len(in.groups))
	for i, g := range in.groups {
		flatGroups[i] = hcoc.Group{Size: g.Size}
	}
	flat, err := hcoc.BuildHierarchy(rootName, flatGroups)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := hcoc.ReleaseSparse(flat, localOptions(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed(flat, flat.Root), rel[flat.Root.Path]; !reflect.DeepEqual(got, want) {
		t.Errorf("one-level tree: replayed root estimate %v, released %v", got, want)
	}
}
