package consistency

import (
	"fmt"
	"hash/fnv"
	"sync"

	"hcoc/internal/estimator"
	"hcoc/internal/hierarchy"
	"hcoc/internal/noise"
)

// nodeSeed derives a per-node noise seed from the release seed and the
// node's path, so that per-node estimation is order-independent (and
// therefore parallelizable) while remaining fully reproducible.
func nodeSeed(seed int64, path string) int64 {
	h := fnv.New64a()
	// FNV over the path, mixed with the release seed.
	_, _ = h.Write([]byte(path))
	return seed ^ int64(h.Sum64())
}

// estimateJob is one node's estimation work item.
type estimateJob struct {
	node   *hierarchy.Node
	method estimator.Method
}

// estimateNodes runs one estimation function over every node of the
// tree (lines 1-7 of Algorithm 1), fanning out across opts.Workers
// goroutines. Each node's noise stream is seeded from (Seed, path), so
// the result is independent of scheduling; one must not retain the
// generator it is handed.
func estimateNodes[T any](tree *hierarchy.Tree, opts Options, one func(estimateJob, *noise.Gen) (T, error)) (map[string]T, error) {
	var jobs []estimateJob
	for level, nodes := range tree.ByLevel {
		m := opts.methodFor(level)
		for _, n := range nodes {
			jobs = append(jobs, estimateJob{node: n, method: m})
		}
	}

	workers := opts.workerCount(len(jobs))

	states := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One generator per worker, reseeded per node: the same
			// stream as a fresh noise.New, without a new source each.
			gen := noise.New(0)
			for i := range next {
				j := jobs[i]
				gen.Reseed(nodeSeed(opts.Seed, j.node.Path))
				res, err := one(j, gen)
				if err != nil {
					errs[i] = fmt.Errorf("consistency: node %q: %w", j.node.Path, err)
					continue
				}
				states[i] = res
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	out := make(map[string]T, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[j.node.Path] = states[i]
	}
	return out, nil
}

// estimateAll produces the dense per-group nodeState for every node —
// the reference pipeline's estimation pass.
func estimateAll(tree *hierarchy.Tree, opts Options, epsLevel float64) (map[string]*nodeState, error) {
	return estimateNodes(tree, opts, func(j estimateJob, gen *noise.Gen) (*nodeState, error) {
		res, err := estimator.Estimate(j.method, j.node.Hist,
			estimator.Params{Epsilon: epsLevel, K: opts.K}, gen)
		if err != nil {
			return nil, err
		}
		return &nodeState{hg: res.Hist.GroupSizes(), vg: res.GroupVar}, nil
	})
}

// estimateAllRuns produces the run-length runState for every node — the
// sparse pipeline's estimation pass, identical noise draws, O(runs)
// state per node.
func estimateAllRuns(tree *hierarchy.Tree, opts Options, epsLevel float64) (map[string]*runState, error) {
	return estimateNodes(tree, opts, func(j estimateJob, gen *noise.Gen) (*runState, error) {
		runs, err := estimator.EstimateRuns(j.method, j.node.Hist,
			estimator.Params{Epsilon: epsLevel, K: opts.K}, gen)
		if err != nil {
			return nil, err
		}
		return &runState{hg: runs}, nil
	})
}
