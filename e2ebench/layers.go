package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/estimator"
	"hcoc/internal/eventlog"
	"hcoc/internal/isotonic"
	"hcoc/internal/noise"
	"hcoc/internal/query/plan"
	"hcoc/internal/store"
)

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"consistency.release_ms", "ms", "lower"},
	{"estimator.estimate_ms", "ms", "lower"},
	{"noise.draws_per_release", "count", "lower"},
	{"noise.draw_ns", "ns", "lower"},
	{"isotonic.fit_ms", "ms", "lower"},
	{"matching.match_ms", "ms", "lower"},
	{"consistency.incremental_ms", "ms", "lower"},
	{"consistency.nodes_estimated_frac", "ratio", "lower"},
	{"consistency.parents_matched_frac", "ratio", "lower"},
	{"sched.queue_wait_ms", "ms", "lower"},
	{"sched.rejected", "count", "lower"},
	{"engine.computed_frac", "ratio", "lower"},
	{"engine.cache_hit_frac", "ratio", "higher"},
	{"engine.incremental_frac", "ratio", "higher"},
	{"eventlog.append_ms", "ms", "lower"},
	{"hierarchy.build_ms", "ms", "lower"},
	{"engine.fingerprint_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.put_bytes_per_op", "bytes", "lower"},
	{"store.manifest_append_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.get_bytes_per_op", "bytes", "lower"},
	{"store.s3_requests_per_op", "count", "lower"},
	{"serve.release_us", "us", "lower"},
	{"serve.append_us", "us", "lower"},
	{"serve.head_release_us", "us", "lower"},
	{"serve.query_us", "us", "lower"},
	{"serve.batch_us", "us", "lower"},
	{"serve.cross_us", "us", "lower"},
	{"serve.download_us", "us", "lower"},
	{"client.transport_us", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"engine.query_us", "us", "lower"},
	{"engine.batch_us", "us", "lower"},
	{"plan.eval_us", "us", "lower"},
	{"hcoc.decode_ms", "ms", "lower"},
	{"gateway.self_us", "us", "lower"},
	{"gateway.backend_calls_per_op", "count", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// counters is a snapshot of every engine's counters plus the Go heap.
type counters struct {
	releases, incremental, storeHits     uint64
	nodesEst, nodesTotal                 uint64
	parentsMatched, parentsTotal         uint64
	requests, computed, granted, rejects uint64
	reads                                uint64
	queueWait                            time.Duration
	alloc                                uint64
}

func snapshot(engines []*engine.Engine) counters {
	var c counters
	for _, e := range engines {
		m := e.Metrics()
		c.releases += m.Releases
		c.incremental += m.IncrementalReleases
		c.storeHits += m.StoreHits
		c.nodesEst += m.RecomputeNodesEstimated
		c.nodesTotal += m.RecomputeNodesTotal
		c.parentsMatched += m.RecomputeParentsMatched
		c.parentsTotal += m.RecomputeParentsTotal
		for _, t := range e.TenantStats() {
			c.requests += t.Requests
			c.computed += t.Computed
			c.granted += t.Granted
			c.rejects += t.Rejected
			c.queueWait += t.QueueWait
		}
		c.reads += e.Scheduler().Snapshot().Reads
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	return c
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of the traced phase from
// its spans and counter deltas; plain is the untraced phase of the same
// run, the base of the tracing overhead and the allocation rate.
func layerMetrics(traced, plain *phaseResult, spans []span, s3Requests int64) map[string]float64 {
	out := make(map[string]float64)
	d := traced.after.minus(traced.before)
	ops := float64(traced.attempted)

	out["consistency.nodes_estimated_frac"] = frac(float64(d.nodesEst), float64(d.nodesTotal))
	out["consistency.parents_matched_frac"] = frac(float64(d.parentsMatched), float64(d.parentsTotal))
	out["sched.queue_wait_ms"] = frac(ms(d.queueWait), float64(d.granted))
	out["sched.rejected"] = float64(d.rejects)
	out["engine.computed_frac"] = frac(float64(d.computed), float64(d.requests))
	if d.reads > 0 {
		out["engine.cache_hit_frac"] = 1 - float64(d.storeHits)/float64(d.reads)
	}
	out["engine.incremental_frac"] = frac(float64(d.incremental), float64(d.releases))
	pd := plain.after.minus(plain.before)
	out["go.alloc_mb_per_op"] = frac(float64(pd.alloc)/1e6, float64(plain.attempted))
	out["trace.overhead_pct"] = 100 * (frac(traced.meanUnit(), plain.meanUnit()) - 1)
	out["store.s3_requests_per_op"] = frac(float64(s3Requests), ops)

	byOp := make(map[int64][]span)
	byID := make(map[int64]span)
	var puts, manifests, gets []float64
	var putBytes, getBytes int64
	for _, s := range spans {
		byID[s.ID] = s
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
		switch s.Name {
		case "store.put":
			puts = append(puts, float64(s.busy())/1e6)
			putBytes += s.Bytes
		case "store.manifest_append":
			manifests = append(manifests, float64(s.busy())/1e6)
		case "store.get":
			gets = append(gets, float64(s.busy())/1e6)
			getBytes += s.Bytes
		}
	}
	out["store.put_ms"] = median(puts)
	out["store.put_bytes_per_op"] = frac(float64(putBytes), ops)
	out["store.manifest_append_ms"] = median(manifests)
	out["store.get_ms"] = median(gets)
	out["store.get_bytes_per_op"] = frac(float64(getBytes), ops)

	serveUS := make(map[string][]float64)
	var transport, gwSelf []float64
	var topHandlers, opCount, gwCalls int
	for id, group := range byOp {
		root, ok := byID[id]
		if !ok || !strings.HasPrefix(root.Name, "op.") {
			continue
		}
		opCount++
		kind := strings.TrimPrefix(root.Name, "op.")
		var serveNS, topNS, gwNS int64
		seenServe, seenGW := false, false
		for _, s := range group {
			parent := byID[s.Parent]
			switch {
			case strings.HasPrefix(s.Name, "serve."):
				serveNS += s.dur()
				seenServe = true
			case strings.HasPrefix(s.Name, "gwcall."):
				gwCalls++
			}
			if strings.HasPrefix(s.Name, "gateway.") {
				// Gateway busy time minus backend busy time: the backend
				// handler spans under this gateway span's backend calls.
				seenGW = true
				calls := make(map[int64]bool)
				for _, k := range group {
					if k.Parent == s.ID {
						calls[k.ID] = true
					}
				}
				var backend []span
				for _, k := range group {
					if calls[k.Parent] && strings.HasPrefix(k.Name, "serve.") {
						backend = append(backend, k)
					}
				}
				gwNS += s.dur() - covered(s, backend)
			}
			if (strings.HasPrefix(s.Name, "serve.") || strings.HasPrefix(s.Name, "gateway.")) &&
				strings.HasPrefix(parent.Name, "client.") {
				topHandlers++
				topNS += s.dur()
			}
		}
		if seenServe {
			serveUS[kind] = append(serveUS[kind], float64(serveNS)/1e3)
		}
		if seenGW {
			gwSelf = append(gwSelf, float64(gwNS)/1e3)
		}
		if kind != "download" && topNS > 0 {
			transport = append(transport, float64(root.dur()-topNS)/1e3)
		}
	}
	for _, kind := range []string{"release", "append", "head_release", "query", "batch", "cross", "download"} {
		out["serve."+kind+"_us"] = median(serveUS[kind])
	}
	out["client.transport_us"] = median(transport)
	out["client.retries"] = float64(topHandlers - opCount)
	out["gateway.self_us"] = mean(gwSelf)
	out["gateway.backend_calls_per_op"] = frac(float64(gwCalls), float64(opCount))
	return out
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return frac(sum, float64(len(xs)))
}

func (c counters) minus(o counters) counters {
	return counters{
		releases: c.releases - o.releases, incremental: c.incremental - o.incremental,
		storeHits: c.storeHits - o.storeHits,
		nodesEst:  c.nodesEst - o.nodesEst, nodesTotal: c.nodesTotal - o.nodesTotal,
		parentsMatched: c.parentsMatched - o.parentsMatched, parentsTotal: c.parentsTotal - o.parentsTotal,
		requests: c.requests - o.requests, computed: c.computed - o.computed,
		granted: c.granted - o.granted, rejects: c.rejects - o.rejects,
		reads: c.reads - o.reads, queueWait: c.queueWait - o.queueWait,
		alloc: c.alloc - o.alloc,
	}
}

// nodeSeed is the per-node noise seed a release derives from its seed
// (consistency's derivation), so the replay draws the release's noise.
func nodeSeed(seed int64, path string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	return seed ^ int64(h.Sum64())
}

// releaseReplay times one from-scratch release of tree on one
// goroutine, as hcoc.ReleaseSparse runs it.
func releaseReplay(tree *hcoc.Tree, seed int64) (float64, error) {
	runtime.GC()
	start := time.Now()
	if _, err := hcoc.ReleaseSparse(tree, localOptions(seed, 1)); err != nil {
		return 0, err
	}
	return ms(time.Since(start)), nil
}

// estimateReplay replays one release's per-node Hc estimates on one
// goroutine: estimator.EstimateRuns (the estimate the release runs) per
// node, then the same noisy cumulative vectors drawn and L1-fitted
// separately, timing the draws and isotonic.FitL1InPlace apart.
func estimateReplay(tree *hcoc.Tree, seed int64) (estimateMS, drawNS float64, draws int64, fitMS float64, err error) {
	epsLevel := releaseEpsilon / float64(tree.Depth())
	p := estimator.Params{Epsilon: epsLevel, K: releaseK}
	var est, draw, fit time.Duration
	runtime.GC()
	for _, n := range tree.Nodes() {
		start := time.Now()
		if _, err := estimator.EstimateRuns(estimator.MethodHc, n.Hist, p, noise.New(nodeSeed(seed, n.Path))); err != nil {
			return 0, 0, 0, 0, err
		}
		est += time.Since(start)
	}
	scale := 1 / epsLevel
	ys := make([]float64, releaseK)
	for _, n := range tree.Nodes() {
		gen := noise.New(nodeSeed(seed, n.Path))
		start := time.Now()
		draws += noisyCumulative(ys, n.Hist, gen, scale)
		mid := time.Now()
		isotonic.FitL1InPlace(ys)
		draw += mid.Sub(start)
		fit += time.Since(mid)
	}
	return ms(est), float64(draw) / float64(draws), draws, ms(fit), nil
}

// noisyCumulative fills ys with hist's noisy cumulative histogram over
// cells 0..K-1, drawing as estimator.EstimateRuns does for MethodHc:
// one draw per cell, then cell K's draw, which the estimate discards.
// It returns the number of draws. TestEstimateReplay pins this copy of
// the estimator's draw rule to the estimator.
func noisyCumulative(ys []float64, hist []int64, gen *noise.Gen, scale float64) int64 {
	var cum int64
	for cell := range ys {
		if cell < len(hist) {
			cum += hist[cell]
		}
		ys[cell] = float64(cum + gen.DoubleGeometric(scale))
	}
	gen.DoubleGeometric(scale)
	return int64(len(ys)) + 1
}

// Replay sizes: how many direct calls each read-path replay times.
const (
	replayQueries = 200
	replayBatches = 50
	replayDecodes = 10
)

// readReplay times direct calls into the read path on one engine: node
// queries, 16-node batches, 16-entry cross-release plans, and the
// artifact decode a download pays.
func readReplay(ctx context.Context, eng *engine.Engine, c *client.Client, in *inputs, rels [2]string) (map[string]float64, error) {
	keys := []string{strings.TrimPrefix(rels[0], "r-"), strings.TrimPrefix(rels[1], "r-")}
	rng := rand.New(rand.NewSource(1))
	node := func() string { return in.nodes[rng.Intn(len(in.nodes))] }
	params := engine.QueryParams{Quantiles: queryQuantiles, TopCode: queryTopCode}
	for _, k := range keys { // admit both into this engine's cache first
		if _, err := eng.Query(k, in.nodes[0], params); err != nil {
			return nil, fmt.Errorf("engine query: %w", err)
		}
	}
	var q, b, p, dec []float64
	for i := 0; i < replayQueries; i++ {
		key, n := keys[i%2], node()
		start := time.Now()
		if _, err := eng.Query(key, n, params); err != nil {
			return nil, err
		}
		q = append(q, float64(time.Since(start))/1e3)
	}
	for i := 0; i < replayBatches; i++ {
		nq := make([]engine.NodeQuery, batchSize)
		pq := make([]plan.Query, batchSize)
		for j := range nq {
			nq[j] = engine.NodeQuery{Node: node(), Params: params}
			op, err := plan.ParseOp(crossOps[rng.Intn(len(crossOps))])
			if err != nil {
				return nil, err
			}
			pq[j] = plan.Query{Op: op, Releases: keys, Node: node()}
		}
		start := time.Now()
		if _, err := eng.BatchQuery(keys[i%2], nq); err != nil {
			return nil, err
		}
		mid := time.Now()
		for _, r := range eng.EvalBatch(pq) {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		b = append(b, float64(mid.Sub(start))/1e3)
		p = append(p, float64(time.Since(mid))/1e3)
	}
	raw, err := c.DownloadReleaseBytes(ctx, rels[0], "")
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayDecodes; i++ {
		start := time.Now()
		if _, _, err := hcoc.ReadReleaseSparse(bytes.NewReader(raw)); err != nil {
			return nil, err
		}
		dec = append(dec, ms(time.Since(start)))
	}
	return map[string]float64{
		"engine.query_us": median(q),
		"engine.batch_us": median(b),
		"plan.eval_us":    median(p),
		"hcoc.decode_ms":  median(dec),
	}, nil
}

// Replay sizes of the write path.
const (
	replayAppends = 40
	replayBuilds  = 5
)

// ingestReplay times the write path's layers on one writer's record:
// the incremental release of its last cycle from the state of the
// version before, eventlog.Log.Append of its deltas on a mirror log
// over a fresh disk store, and the tree rebuild and fingerprint every
// append pays.
func ingestReplay(dir string, wr *writer, cy cycle, seed int64) (map[string]float64, error) {
	out := make(map[string]float64)
	prevTree, _, err := wr.treeAt(cy.version-1, "")
	if err != nil {
		return nil, err
	}
	tree, groups, err := wr.treeAt(cy.version, cy.fp)
	if err != nil {
		return nil, err
	}
	opts := localOptions(seed, 1)
	_, state, _, err := hcoc.ReleaseSparseFrom(prevTree, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	changed := map[string]bool{rootName: true}
	ev := wr.events[cy.version-2]
	for _, g := range append(append([]client.EventGroup(nil), ev.Add...), ev.Remove...) {
		for i := 1; i <= len(g.Path); i++ {
			changed[rootName+"/"+strings.Join(g.Path[:i], "/")] = true
		}
	}
	var incr []float64
	for i := 0; i < replayBuilds; i++ {
		start := time.Now()
		if _, _, _, err := hcoc.ReleaseSparseFrom(tree, opts, state, changed); err != nil {
			return nil, err
		}
		incr = append(incr, ms(time.Since(start)))
	}
	out["consistency.incremental_ms"] = median(incr)
	if out["consistency.release_ms"], err = releaseReplay(tree, seed); err != nil {
		return nil, err
	}

	var build, fp []float64
	for i := 0; i < replayBuilds; i++ {
		start := time.Now()
		t, err := hcoc.BuildHierarchy(rootName, groups)
		if err != nil {
			return nil, err
		}
		mid := time.Now()
		engine.FingerprintTree(t)
		build = append(build, ms(mid.Sub(start)))
		fp = append(fp, ms(time.Since(mid)))
	}
	out["hierarchy.build_ms"] = median(build)
	out["engine.fingerprint_ms"] = median(fp)

	st, err := store.Open(filepath.Join(dir, "mirror"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	m, err := eventlog.OpenManager(st)
	if err != nil {
		return nil, err
	}
	l, _, err := m.Create(rootName, wr.in.groups)
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i, ev := range wr.events {
		if i == replayAppends {
			break
		}
		e := eventlog.Event{Type: ev.Type}
		for _, g := range ev.Add {
			e.Add = append(e.Add, eventlog.Group{Path: g.Path, Size: g.Size})
		}
		for _, g := range ev.Remove {
			e.Remove = append(e.Remove, eventlog.Group{Path: g.Path, Size: g.Size})
		}
		start := time.Now()
		if _, err := l.Append(e, ""); err != nil {
			return nil, fmt.Errorf("mirror append %d: %w", i+1, err)
		}
		appends = append(appends, ms(time.Since(start)))
	}
	out["eventlog.append_ms"] = median(appends)
	return out, nil
}
