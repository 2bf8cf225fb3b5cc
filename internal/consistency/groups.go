package consistency

import (
	"fmt"

	"hcoc/internal/hierarchy"
	"hcoc/internal/noise"
	"hcoc/internal/simplex"
)

// PrivateGroupCounts implements the extension sketched in footnote 5 of
// the paper: when the Groups table is NOT considered public, estimate
// the number of groups in every region under differential privacy
// (with respect to adding or removing one group) and post-process the
// estimates into nonnegative integers that are consistent across the
// hierarchy.
//
// The budget is split evenly across levels; each node's count receives
// double-geometric noise of scale levels/epsilon. Consistency is then
// restored top-down: the root count is its (clamped) noisy estimate, and
// each parent's count is divided among its children by Euclidean
// projection onto the simplex {c >= 0, sum c = parent} followed by
// largest-remainder rounding — the "relatively small nonnegative least
// squares problem" of the footnote, solved exactly level by level.
//
// The returned counts can be fed to the main release via a tree whose
// histograms are scaled accordingly; they satisfy count >= 0,
// integrality, and parent = sum of children.
func PrivateGroupCounts(tree *hierarchy.Tree, epsilon float64, seed int64) (map[string]int64, error) {
	if !(epsilon > 0) {
		return nil, fmt.Errorf("consistency: epsilon must be positive, got %g", epsilon)
	}
	depth := tree.Depth()
	scale := float64(depth) / epsilon
	if !noise.ScaleOK(scale) {
		return nil, fmt.Errorf("consistency: epsilon %g is too small for %d levels: the noise would round to zero", epsilon, depth)
	}

	// Per-node noisy counts, seeded per path (order-independent).
	noisy := make(map[string]float64)
	tree.Walk(func(n *hierarchy.Node) {
		gen := noise.New(nodeSeed(seed, n.Path))
		noisy[n.Path] = float64(n.G() + gen.DoubleGeometric(scale))
	})

	out := make(map[string]int64, len(noisy))
	root := noisy[tree.Root.Path]
	if root < 0 {
		root = 0
	}
	out[tree.Root.Path] = int64(root + 0.5)

	for level := 0; level < depth-1; level++ {
		for _, parent := range tree.ByLevel[level] {
			if len(parent.Children) == 0 {
				continue
			}
			ys := make([]float64, len(parent.Children))
			for i, c := range parent.Children {
				ys[i] = noisy[c.Path]
			}
			counts := simplex.ProjectAndRound(ys, out[parent.Path])
			for i, c := range parent.Children {
				out[c.Path] = counts[i]
			}
		}
	}
	return out, nil
}

// CheckGroupCounts verifies the structural requirements of a private
// group-count release: nonnegative integers with parent = sum of
// children.
func CheckGroupCounts(tree *hierarchy.Tree, counts map[string]int64) error {
	var err error
	tree.Walk(func(n *hierarchy.Node) {
		if err != nil {
			return
		}
		c, ok := counts[n.Path]
		if !ok {
			err = fmt.Errorf("consistency: missing count for %q", n.Path)
			return
		}
		if c < 0 {
			err = fmt.Errorf("consistency: negative count %d at %q", c, n.Path)
			return
		}
		if !n.IsLeaf() {
			var sum int64
			for _, ch := range n.Children {
				sum += counts[ch.Path]
			}
			if sum != c {
				err = fmt.Errorf("consistency: node %q count %d != children sum %d", n.Path, c, sum)
			}
		}
	})
	return err
}
