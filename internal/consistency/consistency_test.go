package consistency

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
)

// randomTree builds a random 2- or 3-level hierarchy.
func randomTree(r *rand.Rand, levels int) *hierarchy.Tree {
	nGroups := 20 + r.Intn(200)
	var groups []hierarchy.Group
	states := []string{"A", "B", "C"}
	counties := []string{"x", "y"}
	for i := 0; i < nGroups; i++ {
		path := []string{states[r.Intn(len(states))]}
		if levels == 3 {
			path = append(path, counties[r.Intn(len(counties))])
		}
		groups = append(groups, hierarchy.Group{Path: path, Size: int64(r.Intn(20))})
	}
	tree, err := hierarchy.BuildTree("root", groups)
	if err != nil {
		panic(err)
	}
	return tree
}

func defaultOpts(seed int64) Options {
	return Options{Epsilon: 1, K: 100, Merge: MergeWeighted, Seed: seed}
}

func TestTopDownSatisfiesAllRequirements(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		levels := 2 + r.Intn(2)
		tree := randomTree(r, levels)
		for _, methods := range [][]estimator.Method{
			{estimator.MethodHc},
			{estimator.MethodHg},
		} {
			opts := defaultOpts(seed)
			opts.Methods = methods
			rel, err := TopDown(tree, opts)
			if err != nil {
				t.Logf("TopDown: %v", err)
				return false
			}
			if err := rel.Check(tree); err != nil {
				t.Logf("Check: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTopDownMixedMethodsPerLevel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tree := randomTree(r, 3)
	opts := defaultOpts(7)
	opts.Methods = []estimator.Method{estimator.MethodHc, estimator.MethodHg, estimator.MethodHc}
	rel, err := TopDown(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Check(tree); err != nil {
		t.Fatal(err)
	}
}

func TestTopDownMergeStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tree := randomTree(r, 2)
	for _, merge := range []MergeStrategy{MergeWeighted, MergeAverage} {
		opts := defaultOpts(8)
		opts.Merge = merge
		rel, err := TopDown(tree, opts)
		if err != nil {
			t.Fatalf("%v: %v", merge, err)
		}
		if err := rel.Check(tree); err != nil {
			t.Fatalf("%v: %v", merge, err)
		}
	}
}

func TestTopDownDeterministicUnderSeed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tree := randomTree(r, 2)
	a, err := TopDown(tree, defaultOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopDown(tree, defaultOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	for path, h := range a {
		if !h.Equal(b[path]) {
			t.Fatalf("node %q differs across identical seeds", path)
		}
	}
}

func TestTopDownSingleLevelTree(t *testing.T) {
	tree, err := hierarchy.BuildTree("only", []hierarchy.Group{
		{Path: nil, Size: 3}, {Path: nil, Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := TopDown(tree, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Check(tree); err != nil {
		t.Fatal(err)
	}
}

func TestTopDownHighEpsilonRecoversTruth(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tree := randomTree(r, 2)
	opts := defaultOpts(10)
	opts.Epsilon = 10000
	rel, err := TopDown(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *hierarchy.Node) {
		if d := histogram.EMD(n.Hist, rel[n.Path]); d > 2 {
			t.Errorf("node %q: EMD %d at eps=10000, want ~0", n.Path, d)
		}
	})
}

func TestTopDownRejectsBadOptions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tree := randomTree(r, 2)
	if _, err := TopDown(tree, Options{Epsilon: 0, K: 10}); err == nil {
		t.Error("epsilon 0 accepted")
	}
	// Budgets so small that the noise would round to zero must be
	// refused by every release path, not released unperturbed.
	for _, eps := range []float64{1e-17, 1e-310} {
		opts := Options{Epsilon: eps, K: 10}
		if _, err := TopDown(tree, opts); err == nil {
			t.Errorf("TopDown accepted epsilon %g", eps)
		}
		if _, err := TopDownSparse(tree, opts); err == nil {
			t.Errorf("TopDownSparse accepted epsilon %g", eps)
		}
		if _, err := BottomUpSparse(tree, opts); err == nil {
			t.Errorf("BottomUpSparse accepted epsilon %g", eps)
		}
		if _, _, _, err := TopDownSparseFrom(tree, opts, nil, nil); err == nil {
			t.Errorf("TopDownSparseFrom accepted epsilon %g", eps)
		}
		if _, err := PrivateGroupCounts(tree, eps, 1); err == nil {
			t.Errorf("PrivateGroupCounts accepted epsilon %g", eps)
		}
	}
	opts := defaultOpts(1)
	opts.Methods = []estimator.Method{estimator.MethodHc, estimator.MethodHc, estimator.MethodHc}
	if _, err := TopDown(tree, opts); err == nil {
		t.Error("method count mismatch accepted")
	}
}

func TestBottomUpSatisfiesAllRequirements(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 2+r.Intn(2))
		rel, err := BottomUp(tree, defaultOpts(seed))
		if err != nil {
			return false
		}
		return rel.Check(tree) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBottomUpBetterAtLeavesWorseAtRoot(t *testing.T) {
	// Section 6.2.2: with the same total budget, bottom-up should win at
	// the leaves and lose at the root (it wastes no budget on upper
	// levels but aggregates leaf noise upward).
	r := rand.New(rand.NewSource(12))
	var groups []hierarchy.Group
	for i := 0; i < 3000; i++ {
		st := string(rune('A' + r.Intn(20)))
		groups = append(groups, hierarchy.Group{Path: []string{st}, Size: int64(r.Intn(50))})
	}
	tree, err := hierarchy.BuildTree("US", groups)
	if err != nil {
		t.Fatal(err)
	}
	var buRoot, tdRoot, buLeaf, tdLeaf int64
	const runs = 5
	for i := int64(0); i < runs; i++ {
		opts := defaultOpts(i)
		opts.Epsilon = 0.5
		bu, err := BottomUp(tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		td, err := TopDown(tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		buRoot += histogram.EMD(tree.Root.Hist, bu[tree.Root.Path])
		tdRoot += histogram.EMD(tree.Root.Hist, td[tree.Root.Path])
		for _, leaf := range tree.Leaves() {
			buLeaf += histogram.EMD(leaf.Hist, bu[leaf.Path])
			tdLeaf += histogram.EMD(leaf.Hist, td[leaf.Path])
		}
	}
	if buRoot <= tdRoot {
		t.Errorf("bottom-up root error %d should exceed top-down %d", buRoot, tdRoot)
	}
	if buLeaf >= tdLeaf {
		t.Errorf("bottom-up leaf error %d should be below top-down %d", buLeaf, tdLeaf)
	}
}

func TestWeightedMergeBeatsAverageAtRoot(t *testing.T) {
	// Figure 4: weighted averaging should reduce top-level error.
	r := rand.New(rand.NewSource(13))
	var groups []hierarchy.Group
	for i := 0; i < 5000; i++ {
		st := string(rune('A' + r.Intn(10)))
		size := int64(r.Intn(8))
		if r.Intn(100) == 0 {
			size = int64(100 + r.Intn(900)) // sparse heavy tail
		}
		groups = append(groups, hierarchy.Group{Path: []string{st}, Size: size})
	}
	tree, err := hierarchy.BuildTree("US", groups)
	if err != nil {
		t.Fatal(err)
	}
	var weighted, average int64
	const runs = 8
	for i := int64(0); i < runs; i++ {
		for _, merge := range []MergeStrategy{MergeWeighted, MergeAverage} {
			opts := defaultOpts(i)
			opts.Epsilon = 0.2
			opts.Merge = merge
			rel, err := TopDown(tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := histogram.EMD(tree.Root.Hist, rel[tree.Root.Path])
			if merge == MergeWeighted {
				weighted += e
			} else {
				average += e
			}
		}
	}
	if weighted >= average {
		t.Errorf("weighted merge root error %d should be below plain average %d", weighted, average)
	}
}

func TestMergeStrategyString(t *testing.T) {
	if MergeWeighted.String() != "weighted" || MergeAverage.String() != "average" {
		t.Error("unexpected merge strategy names")
	}
	if MergeStrategy(9).String() == "" {
		t.Error("unknown strategy should still stringify")
	}
}

func TestReleaseCheckCatchesViolations(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	tree := randomTree(r, 2)
	rel, err := TopDown(tree, defaultOpts(14))
	if err != nil {
		t.Fatal(err)
	}
	// Missing node.
	broken := Release{}
	if broken.Check(tree) == nil {
		t.Error("missing nodes accepted")
	}
	// Wrong group count.
	rel2 := Release{}
	for k, v := range rel {
		rel2[k] = v
	}
	root := tree.Root.Path
	rel2[root] = rel2[root].Add(histogram.Hist{5})
	if rel2.Check(tree) == nil {
		t.Error("wrong group count accepted")
	}
}
