package estimator

import (
	"sort"
	"testing"

	"hcoc/internal/dataset"
	"hcoc/internal/noise"
)

// BenchmarkEstimateHc measures one node's Hc estimate as a release runs
// it: a reseeded generator, K=1000, the per-level epsilon of a 3-level
// release at epsilon 1, on the median-sized node (by group count) of the
// housing tree at scale 0.05. B/op is the per-node allocation a release
// pays on top of the runs it keeps.
func BenchmarkEstimateHc(b *testing.B) {
	tree, err := dataset.Tree(dataset.Housing, dataset.Config{Seed: 1, Scale: 0.05, Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	nodes := tree.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].G() < nodes[j].G() })
	h := nodes[len(nodes)/2].Hist
	p := Params{Epsilon: 1.0 / 3, K: 1000}
	gen := noise.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reseed(int64(i))
		if _, err := EstimateRuns(MethodHc, h, p, gen); err != nil {
			b.Fatal(err)
		}
	}
}
