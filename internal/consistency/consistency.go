package consistency

import (
	"fmt"
	"runtime"
	"sync"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/histogram"
	"hcoc/internal/matching"
	"hcoc/internal/noise"
)

// MergeStrategy selects how the two size estimates of a matched group
// (one from the parent, one from the child) are reconciled (Section 5.3).
type MergeStrategy int

const (
	// MergeWeighted averages the two estimates inversely weighted by
	// their estimated variances — the paper's recommended strategy.
	MergeWeighted MergeStrategy = iota
	// MergeAverage takes the plain average, ignoring variances — the
	// naive strategy of Section 5.3, kept for the Figure 4 comparison.
	MergeAverage
)

// String names the strategy as in the paper's figures.
func (m MergeStrategy) String() string {
	switch m {
	case MergeWeighted:
		return "weighted"
	case MergeAverage:
		return "average"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(m))
	}
}

// Options configures a hierarchical release.
type Options struct {
	// Epsilon is the total privacy-loss budget; it is split evenly
	// across the Depth() levels of the hierarchy (sequential
	// composition across levels, parallel within a level).
	Epsilon float64
	// K is the public upper bound on group size (Section 4.1).
	K int
	// Methods[l] is the estimation method for level l. A single-element
	// slice is broadcast to every level. Defaults to MethodHc.
	Methods []estimator.Method
	// Merge selects the estimate-reconciliation strategy.
	Merge MergeStrategy
	// Seed drives all noise; runs with equal seeds are identical.
	// Each node's noise stream is derived from (Seed, node path), so
	// results do not depend on Workers.
	Seed int64
	// Workers bounds the number of goroutines used for the two
	// expensive, embarrassingly parallel steps: per-node estimation and
	// per-parent matching/merging. 0 means GOMAXPROCS.
	Workers int
}

// workerCount resolves Workers against the number of independent jobs.
func (o Options) workerCount(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) methodFor(level int) estimator.Method {
	switch {
	case len(o.Methods) == 0:
		return estimator.MethodHc
	case len(o.Methods) == 1:
		return o.Methods[0]
	default:
		return o.Methods[level]
	}
}

func (o Options) validate(depth int) error {
	if !(o.Epsilon > 0) {
		return fmt.Errorf("consistency: epsilon must be positive, got %g", o.Epsilon)
	}
	// Each level spends Epsilon/depth (the bottom-up baseline spends
	// all of it per leaf, so this bound is the stricter one).
	if err := estimator.CheckEpsilon(o.Epsilon / float64(depth)); err != nil {
		return fmt.Errorf("consistency: epsilon %g split over %d levels: %w", o.Epsilon, depth, err)
	}
	if len(o.Methods) > 1 && len(o.Methods) != depth {
		return fmt.Errorf("consistency: got %d methods for %d levels", len(o.Methods), depth)
	}
	return nil
}

// Release maps node paths to released count-of-counts histograms.
type Release map[string]histogram.Hist

// Check verifies the four problem requirements of Section 3 against the
// public structure of the tree: integrality and nonnegativity (by
// construction of histogram.Hist but re-validated), the group-size
// constraint, and parent/child consistency.
func (r Release) Check(tree *hierarchy.Tree) error {
	var err error
	tree.Walk(func(n *hierarchy.Node) {
		if err != nil {
			return
		}
		h, ok := r[n.Path]
		if !ok {
			err = fmt.Errorf("consistency: no release for node %q", n.Path)
			return
		}
		if e := h.Validate(); e != nil {
			err = fmt.Errorf("consistency: node %q: %w", n.Path, e)
			return
		}
		if h.Groups() != n.G() {
			err = fmt.Errorf("consistency: node %q released %d groups, public count is %d", n.Path, h.Groups(), n.G())
			return
		}
		if !n.IsLeaf() {
			var sum histogram.Hist
			for _, c := range n.Children {
				sum = sum.Add(r[c.Path])
			}
			if !h.Equal(sum) {
				err = fmt.Errorf("consistency: node %q is not the sum of its children", n.Path)
			}
		}
	})
	return err
}

// nodeState carries the per-node intermediate results of Algorithm 1.
type nodeState struct {
	hg  histogram.GroupSizes // original estimate, sorted (used for matching)
	vg  []float64            // variance of hg entries (Section 5.1)
	upd histogram.GroupSizes // updated (merged, rounded) sizes, index-aligned with hg
	uvr []float64            // updated variances
}

// TopDown runs Algorithm 1: per-level DP estimation, top-down matching
// and merging, then back-substitution so that every parent equals the sum
// of its children. The result satisfies all four requirements of
// Section 3.
//
// It computes through the run-length pipeline (TopDownSparse) and
// densifies the result; callers that keep many releases resident — the
// serving engine above all — should call TopDownSparse directly and
// stay sparse.
func TopDown(tree *hierarchy.Tree, opts Options) (Release, error) {
	s, err := TopDownSparse(tree, opts)
	if err != nil {
		return nil, err
	}
	return s.Dense(), nil
}

// TopDownDense is the dense per-group reference implementation of
// Algorithm 1: every estimate is a G-length group-size array walked one
// group at a time. It releases bit-for-bit the same histograms as
// TopDownSparse (the differential tests enforce this); it is retained
// as the oracle for those tests and as the baseline the benchmarks
// measure the sparse pipeline against.
func TopDownDense(tree *hierarchy.Tree, opts Options) (Release, error) {
	depth := tree.Depth()
	if err := opts.validate(depth); err != nil {
		return nil, err
	}
	epsLevel := opts.Epsilon / float64(depth)

	// Lines 1-7: per-node DP estimates and variances. Nodes are
	// independent (parallel composition), so this fans out across
	// Workers goroutines; each node's noise stream is derived from
	// (Seed, path) so the output is identical at any parallelism.
	states, err := estimateAll(tree, opts, epsLevel)
	if err != nil {
		return nil, err
	}

	// Lines 8-12: top-down matching and merging.
	if err := matchLevels(tree, states, opts); err != nil {
		return nil, err
	}

	// Line 13: leaves' updated sizes become their final histograms.
	out := make(Release, len(states))
	for _, leaf := range tree.Leaves() {
		s := states[leaf.Path]
		sizes := s.upd
		if sizes == nil {
			// Single-level tree: the root is the only leaf.
			sizes = s.hg
		}
		out[leaf.Path] = sizes.Hist()
	}

	// Lines 14-15: back-substitution.
	for level := depth - 2; level >= 0; level-- {
		for _, n := range tree.ByLevel[level] {
			var sum histogram.Hist
			for _, c := range n.Children {
				sum = sum.Add(out[c.Path])
			}
			out[n.Path] = sum
		}
	}
	return out, nil
}

// matchLevels runs lines 8-12 of Algorithm 1: seed the root's updated
// estimate with its own, then walk the levels top-down, matching and
// merging each parent with its children. Parents within a level are
// independent — each one reads only its own state (finalized at the
// previous level) and writes only its own children's states, and every
// node has exactly one parent — so the per-level loop fans out across
// opts.Workers goroutines.
func matchLevels(tree *hierarchy.Tree, states map[string]*nodeState, opts Options) error {
	rootState := states[tree.Root.Path]
	rootState.upd = rootState.hg.Clone()
	rootState.uvr = append([]float64(nil), rootState.vg...)

	for level := 0; level < tree.Depth()-1; level++ {
		parents := tree.ByLevel[level]
		err := forEachNode(parents, opts.workerCount(len(parents)), func(parent *hierarchy.Node) error {
			return matchParent(states, parent, opts.Merge)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// matchParent matches one parent's original estimate against its
// children's original estimates (Algorithm 2), then merges each child
// estimate with the parent's updated value at the matched index
// (Section 5.3), filling in the children's updated sizes and variances.
func matchParent(states map[string]*nodeState, parent *hierarchy.Node, strategy MergeStrategy) error {
	if len(parent.Children) == 0 {
		return nil
	}
	ps := states[parent.Path]
	childHg := make([]histogram.GroupSizes, len(parent.Children))
	for i, c := range parent.Children {
		childHg[i] = states[c.Path].hg
	}
	ms, err := matching.Compute(ps.hg, childHg)
	if err != nil {
		return fmt.Errorf("consistency: node %q: %w", parent.Path, err)
	}
	for i, c := range parent.Children {
		cs := states[c.Path]
		cs.upd = make(histogram.GroupSizes, len(cs.hg))
		cs.uvr = make([]float64, len(cs.hg))
		for j := range cs.hg {
			pi := ms[i].ParentIndex[j]
			val, vr := merge(strategy,
				float64(cs.hg[j]), cs.vg[j],
				float64(ps.upd[pi]), ps.uvr[pi])
			if val < 0 {
				val = 0 // rounding guard; estimates are nonnegative
			}
			cs.upd[j] = int64(val + 0.5)
			cs.uvr[j] = vr
		}
	}
	return nil
}

// forEachNode applies fn to every node, fanning out across workers
// goroutines; with a single worker it runs inline with no goroutine
// overhead. The first error in node order is returned.
func forEachNode(nodes []*hierarchy.Node, workers int, fn func(*hierarchy.Node) error) error {
	if workers <= 1 {
		for _, n := range nodes {
			if err := fn(n); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(nodes))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(nodes[i])
			}
		}()
	}
	for i := range nodes {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// merge reconciles a child estimate (xc, vc) with the matched parent
// estimate (xp, vp), returning the merged value and its variance
// (Equations 5 and 6).
func merge(strategy MergeStrategy, xc, vc, xp, vp float64) (float64, float64) {
	switch strategy {
	case MergeAverage:
		return (xc + xp) / 2, (vc + vp) / 4
	default: // MergeWeighted
		wc, wp := 1/vc, 1/vp
		return (xc*wc + xp*wp) / (wc + wp), 1 / (wc + wp)
	}
}

// BottomUp is the baseline of Section 6.2.2: the entire budget is spent
// at the leaves (parallel composition: disjoint leaves each get the full
// epsilon), and internal nodes are the sums of their children. It
// satisfies all four requirements but concentrates error at upper
// levels. Like TopDown it computes through the run-length pipeline;
// BottomUpDense is the per-group reference.
func BottomUp(tree *hierarchy.Tree, opts Options) (Release, error) {
	s, err := BottomUpSparse(tree, opts)
	if err != nil {
		return nil, err
	}
	return s.Dense(), nil
}

// BottomUpDense is the dense per-group reference implementation of
// BottomUp, retained for the differential tests and benchmarks.
func BottomUpDense(tree *hierarchy.Tree, opts Options) (Release, error) {
	depth := tree.Depth()
	if err := opts.validate(depth); err != nil {
		return nil, err
	}
	m := opts.methodFor(depth - 1)
	out := make(Release)
	for _, leaf := range tree.Leaves() {
		gen := noise.New(nodeSeed(opts.Seed, leaf.Path))
		res, err := estimator.Estimate(m, leaf.Hist, estimator.Params{Epsilon: opts.Epsilon, K: opts.K}, gen)
		if err != nil {
			return nil, fmt.Errorf("consistency: leaf %q: %w", leaf.Path, err)
		}
		out[leaf.Path] = res.Hist
	}
	for level := depth - 2; level >= 0; level-- {
		for _, n := range tree.ByLevel[level] {
			var sum histogram.Hist
			for _, c := range n.Children {
				sum = sum.Add(out[c.Path])
			}
			out[n.Path] = sum
		}
	}
	return out, nil
}
