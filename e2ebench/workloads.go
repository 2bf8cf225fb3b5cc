package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
)

// The inputs every workload shares: the synthetic housing dataset at
// three levels and scale 0.05 (1,983 nodes, 10,234 groups for dataset
// seed 1), released with K=1000 and epsilon 1.
const (
	rootName       = "US"
	datasetScale   = 0.05
	datasetLevels  = 3
	releaseK       = 1000
	releaseEpsilon = 1.0
	batchSize      = 16
)

// queryQuantiles and queryTopCode are the statistics every node query
// asks for.
var (
	queryQuantiles = []float64{0.5, 0.9, 0.99}
	queryTopCode   = 8
	crossOps       = []string{"emd", "delta", "series", "compare"}
)

// The tail statistics tail_ms reports, fixed per workload so that every
// run of every commit reports the same order statistic. Each keeps at
// least ten samples beyond it in a 25 s window at the slowest rate seen
// on a contended 2-vCPU host, with room to spare: release_fresh about
// 2.5 releases/s (62 in the window, so p80 over the whole window),
// ingest about 24 appends/s (120 per fifth, so p90 over 5 parts),
// read_mix and gateway_read at least 170 queries/s from their one
// client (420 per tenth, so p90 over 10 parts).
var (
	releaseTail = stat{0.8, 1}
	appendTail  = stat{0.9, 5}
	queryTail   = stat{0.9, subWindows}
)

// recordFunc books one finished request of a benchmark op.
type recordFunc func(kind string, d time.Duration, err error)

// workload is one traffic mix: how to set a stack up, one client's
// closed loop, the output checks and the traced-run replays.
type workload interface {
	// gateway reports whether the stack is the gateway fleet.
	gateway() bool
	// clients is the closed loop's size.
	clients() int
	// primary names the request whose latency p50_ms and tail_ms
	// report, and tail_ms's statistic.
	primary() (kind string, tail stat)
	// prepare uploads the inputs and warms the stack; it runs once per
	// set-up and keeps the state of the last one.
	prepare(ctx context.Context, c *client.Client) error
	// loop returns client id's closed loop for one measured phase.
	loop(id, phase int) loop
	// verify checks the program's outputs after the timed window.
	verify(ctx context.Context, c *client.Client) error
	// replay times direct calls into the layers the workload exercised
	// (traced runs only), keyed by per-layer metric name.
	replay(ctx context.Context, s *stack, c *client.Client) (map[string]float64, error)
}

// loop is one client's closed loop: unit issues one loop unit (a
// release, a read, or an append+release cycle) and waits for it.
type loop interface {
	unit(ctx context.Context, c *client.Client, tr *tracer, rec recordFunc)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "release_fresh":
		in, err := makeInputs(1)
		return &releaseFresh{seed: seed, in: in}, err
	case "read_mix", "gateway_read":
		in, err := makeInputs(1)
		return &readMix{seed: seed, in: in, viaGateway: name == "gateway_read"}, err
	case "ingest":
		w := &ingest{seed: seed}
		for i := 0; i < ingestWriters; i++ {
			in, err := makeInputs(int64(i + 1))
			if err != nil {
				return nil, err
			}
			w.writers = append(w.writers, &writer{in: in})
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want release_fresh, read_mix, ingest or gateway_read)", name)
	}
}

// inputs is one generated hierarchy.
type inputs struct {
	groups []hcoc.Group
	tree   *hcoc.Tree
	nodes  []string   // every node path
	leaves [][]string // every leaf path below the root
}

func makeInputs(datasetSeed int64) (*inputs, error) {
	groups, err := hcoc.SyntheticGroups(hcoc.DatasetHousing, hcoc.DatasetConfig{
		Seed: datasetSeed, Scale: datasetScale, Levels: datasetLevels,
	})
	if err != nil {
		return nil, err
	}
	tree, err := hcoc.BuildHierarchy(rootName, groups)
	if err != nil {
		return nil, err
	}
	in := &inputs{groups: groups, tree: tree}
	for _, n := range tree.Nodes() {
		in.nodes = append(in.nodes, n.Path)
	}
	for _, leaf := range tree.Leaves() {
		in.leaves = append(in.leaves, strings.Split(leaf.Path, "/")[1:])
	}
	return in, nil
}

// derive maps (seed, salt) to a positive, non-zero release seed
// (splitmix64), so every request seed follows from the workload seed.
func derive(seed, salt int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(salt)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

func releaseRequest(hid string, seed int64) client.ReleaseRequest {
	return client.ReleaseRequest{Hierarchy: hid, Epsilon: releaseEpsilon, K: releaseK, Seed: seed}
}

func localOptions(seed int64, workers int) hcoc.Options {
	return hcoc.Options{Epsilon: releaseEpsilon, K: releaseK, Seed: seed, Workers: workers}
}

// timed issues one op under its trace span and books it.
func timed(ctx context.Context, tr *tracer, rec recordFunc, kind string, call func(context.Context) error) error {
	octx, end := tr.beginOp(ctx, kind)
	start := time.Now()
	err := call(octx)
	d := time.Since(start)
	end()
	rec(kind, d, err)
	return err
}

// sameArtifact checks a downloaded artifact against a local release of
// the same inputs: the bytes must equal the local encoding, and the
// release must pass hcoc.CheckSparse against the tree.
func sameArtifact(raw []byte, tree *hcoc.Tree, want hcoc.SparseHistograms) error {
	var buf bytes.Buffer
	if err := hcoc.WriteReleaseSparse(&buf, want, releaseEpsilon); err != nil {
		return err
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		return fmt.Errorf("artifact (%d bytes) differs from the local release (%d bytes)", len(raw), buf.Len())
	}
	got, _, err := hcoc.ReadReleaseSparse(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return hcoc.CheckSparse(tree, got)
}

// releaseFresh: every request carries a seed no earlier request used,
// so no cache, store or dedup tier can answer it.
type releaseFresh struct {
	seed  int64
	in    *inputs
	hid   string
	loops []*freshLoop
}

// Two clients release at once, as many as the stack has compute slots
// on a 2-vCPU host: the scheduler always has a request to grant, and
// both requests are alike, so each sees the other's load evenly.
func (w *releaseFresh) gateway() bool           { return false }
func (w *releaseFresh) clients() int            { return 2 }
func (w *releaseFresh) primary() (string, stat) { return "release", releaseTail }

// loop starts client id's loop; phases draw disjoint seed ranges, and
// the output checks sample the last phase's loops.
func (w *releaseFresh) loop(id, phase int) loop {
	l := &freshLoop{w: w, salt: int64(phase)<<40 | int64(id)<<32}
	if id == 0 {
		w.loops = nil
	}
	w.loops = append(w.loops, l)
	return l
}

func (w *releaseFresh) prepare(ctx context.Context, c *client.Client) error {
	h, err := c.UploadHierarchy(ctx, rootName, w.in.groups)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	w.hid = h.ID
	// One release before the window, on a seed the window never uses.
	if _, err := c.Release(ctx, releaseRequest(w.hid, derive(w.seed, -1))); err != nil {
		return fmt.Errorf("warm release: %w", err)
	}
	return nil
}

type freshLoop struct {
	w    *releaseFresh
	salt int64
	n    int64
	done []freshDone
}

type freshDone struct {
	seed    int64
	release string
}

func (l *freshLoop) unit(ctx context.Context, c *client.Client, tr *tracer, rec recordFunc) {
	seed := derive(l.w.seed, l.salt+l.n)
	l.n++
	var res client.Release
	err := timed(ctx, tr, rec, "release", func(ctx context.Context) error {
		var err error
		res, err = c.Release(ctx, releaseRequest(l.w.hid, seed))
		if err == nil && (res.CacheHit || res.StoreHit || res.PeerHit || res.Deduped) {
			err = fmt.Errorf("fresh release %s was not computed (cache=%v store=%v peer=%v dedup=%v)",
				res.Release, res.CacheHit, res.StoreHit, res.PeerHit, res.Deduped)
		}
		if err == nil && res.Nodes != len(l.w.in.nodes) {
			err = fmt.Errorf("release %s covers %d nodes, want %d", res.Release, res.Nodes, len(l.w.in.nodes))
		}
		return err
	})
	if err == nil {
		l.done = append(l.done, freshDone{seed: seed, release: res.Release})
	}
}

// samples picks the checked releases: the first of the first client
// and the last of the last client.
func (w *releaseFresh) samples() []freshDone {
	var out []freshDone
	if len(w.loops) > 0 && len(w.loops[0].done) > 0 {
		out = append(out, w.loops[0].done[0])
	}
	if last := w.loops[len(w.loops)-1]; len(last.done) > 0 {
		if d := last.done[len(last.done)-1]; len(out) == 0 || d != out[0] {
			out = append(out, d)
		}
	}
	return out
}

func (w *releaseFresh) verify(ctx context.Context, c *client.Client) error {
	smp := w.samples()
	if len(smp) == 0 {
		return errors.New("no release completed, nothing to check")
	}
	for _, d := range smp {
		raw, err := c.DownloadReleaseBytes(ctx, d.release, "")
		if err != nil {
			return fmt.Errorf("download %s: %w", d.release, err)
		}
		want, err := hcoc.ReleaseSparse(w.in.tree, localOptions(d.seed, 0))
		if err != nil {
			return err
		}
		if err := sameArtifact(raw, w.in.tree, want); err != nil {
			return fmt.Errorf("release %s (seed %d): %w", d.release, d.seed, err)
		}
	}
	return nil
}

func (w *releaseFresh) replay(ctx context.Context, s *stack, c *client.Client) (map[string]float64, error) {
	out := make(map[string]float64)
	var rel, est, draw, fit []float64
	var draws int64
	for _, d := range w.samples() {
		r, err := releaseReplay(w.in.tree, d.seed)
		if err != nil {
			return nil, err
		}
		e, drawNS, n, f, err := estimateReplay(w.in.tree, d.seed)
		if err != nil {
			return nil, err
		}
		rel, est, draw, fit = append(rel, r), append(est, e), append(draw, drawNS), append(fit, f)
		draws = n
	}
	out["consistency.release_ms"] = median(rel)
	out["estimator.estimate_ms"] = median(est)
	out["noise.draws_per_release"] = float64(draws)
	out["noise.draw_ns"] = median(draw)
	out["isotonic.fit_ms"] = median(fit)
	out["matching.match_ms"] = out["consistency.release_ms"] - out["estimator.estimate_ms"]
	return out, nil
}

// readMix: two warm releases of one hierarchy, read by a fixed mix of
// node queries, batches, cross-release batches and artifact downloads.
// viaGateway sends the same traffic through the gateway fleet.
type readMix struct {
	seed       int64
	in         *inputs
	viaGateway bool
	rel        [2]string
	loops      []*readLoop
}

// readBlock is the op mix one client cycles through, reshuffled per
// block so every client issues exactly these proportions.
var readBlock = []string{"query", "query", "query", "query", "query", "query", "query", "query", "batch", "cross", "download"}

// One client reads, like an analyst's script: with a second one, a
// 0.3 ms query would mostly wait behind the other's 13 ms download for
// the host's two vCPUs, and its latency would measure the Go scheduler's
// interleaving rather than the read path.
func (w *readMix) gateway() bool           { return w.viaGateway }
func (w *readMix) clients() int            { return 1 }
func (w *readMix) primary() (string, stat) { return "query", queryTail }

func (w *readMix) loop(id, phase int) loop {
	l := &readLoop{w: w, rng: rand.New(rand.NewSource(derive(w.seed, int64(id))))}
	if id == 0 {
		w.loops = nil
	}
	w.loops = append(w.loops, l)
	return l
}

func (w *readMix) prepare(ctx context.Context, c *client.Client) error {
	h, err := c.UploadHierarchy(ctx, rootName, w.in.groups)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	for i := range w.rel {
		r, err := c.Release(ctx, releaseRequest(h.ID, derive(w.seed, int64(-1-i))))
		if err != nil {
			return fmt.Errorf("warm release %d: %w", i, err)
		}
		w.rel[i] = r.Release
	}
	return nil
}

type readLoop struct {
	w     *readMix
	rng   *rand.Rand
	block []string
	count map[string]int

	// Sampled answers, checked after the window.
	queries []querySample
	batches []batchSample
	crosses []batchSample
}

type querySample struct {
	release, node string
	rep           client.NodeReport
}

type batchSample struct {
	release string
	qs      []client.NodeQuery
	res     []client.NodeResult
}

// Every sampleEvery-th op of a kind is kept for the output checks, up
// to maxSamples per kind and client.
const (
	sampleEvery = 8
	maxSamples  = 32
)

func (l *readLoop) sample(kind string) bool {
	if l.count == nil {
		l.count = make(map[string]int)
	}
	n := l.count[kind]
	l.count[kind]++
	return n%sampleEvery == 0 && n/sampleEvery < maxSamples
}

func (l *readLoop) node() string { return l.w.in.nodes[l.rng.Intn(len(l.w.in.nodes))] }

func (l *readLoop) unit(ctx context.Context, c *client.Client, tr *tracer, rec recordFunc) {
	if len(l.block) == 0 {
		l.block = append(l.block, readBlock...)
		l.rng.Shuffle(len(l.block), func(i, j int) { l.block[i], l.block[j] = l.block[j], l.block[i] })
	}
	kind := l.block[0]
	l.block = l.block[1:]
	rel := l.w.rel[l.rng.Intn(2)]
	switch kind {
	case "query":
		node := l.node()
		var rep client.NodeReport
		err := timed(ctx, tr, rec, kind, func(ctx context.Context) error {
			var err error
			rep, err = c.Query(ctx, rel, node, client.QueryParams{Quantiles: queryQuantiles, TopCode: queryTopCode})
			return err
		})
		if err == nil && l.sample(kind) {
			l.queries = append(l.queries, querySample{release: rel, node: node, rep: rep})
		}
	case "batch", "cross":
		qs := make([]client.NodeQuery, batchSize)
		for i := range qs {
			if kind == "batch" {
				qs[i] = client.NodeQuery{Node: l.node(), Quantiles: queryQuantiles, TopCode: queryTopCode}
			} else {
				qs[i] = client.NodeQuery{Op: crossOps[l.rng.Intn(len(crossOps))], Releases: l.w.rel[:], Node: l.node()}
			}
		}
		batchRel := rel
		if kind == "cross" {
			batchRel = ""
		}
		var res []client.NodeResult
		err := timed(ctx, tr, rec, kind, func(ctx context.Context) error {
			var err error
			res, err = c.BatchQuery(ctx, batchRel, qs)
			for _, r := range res {
				if err == nil && r.Error != "" {
					err = fmt.Errorf("%s entry %s %s: %s", kind, r.Op, r.Node, r.Error)
				}
			}
			return err
		})
		if err == nil && l.sample(kind) {
			smp := batchSample{release: batchRel, qs: qs, res: res}
			if kind == "batch" {
				l.batches = append(l.batches, smp)
			} else {
				l.crosses = append(l.crosses, smp)
			}
		}
	case "download":
		_ = timed(ctx, tr, rec, kind, func(ctx context.Context) error {
			got, _, err := c.DownloadRelease(ctx, rel)
			if err == nil && len(got) != len(l.w.in.nodes) {
				err = fmt.Errorf("download %s holds %d nodes, want %d", rel, len(got), len(l.w.in.nodes))
			}
			return err
		})
	}
}

func (w *readMix) verify(ctx context.Context, c *client.Client) error {
	rels := make(map[string]hcoc.SparseHistograms, 2)
	for _, id := range w.rel {
		rel, _, err := c.DownloadRelease(ctx, id)
		if err != nil {
			return fmt.Errorf("download %s: %w", id, err)
		}
		if err := hcoc.CheckSparse(w.in.tree, rel); err != nil {
			return fmt.Errorf("release %s: %w", id, err)
		}
		rels[id] = rel
	}
	checked := 0
	for _, l := range w.loops {
		for _, s := range l.queries {
			if err := checkReport(rels[s.release][s.node], queryQuantiles, queryTopCode, s.rep); err != nil {
				return fmt.Errorf("query %s on %s: %w", s.node, s.release, err)
			}
			checked++
		}
		for _, s := range l.batches {
			for i, q := range s.qs {
				if err := checkReport(rels[s.release][q.Node], q.Quantiles, q.TopCode, s.res[i].NodeReport); err != nil {
					return fmt.Errorf("batch entry %s on %s: %w", q.Node, s.release, err)
				}
				checked++
			}
		}
		for _, s := range l.crosses {
			for i, q := range s.qs {
				if err := checkCross(rels, q, s.res[i]); err != nil {
					return fmt.Errorf("cross entry %s %s: %w", q.Op, q.Node, err)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		return errors.New("no read answer was sampled, nothing to check")
	}
	return nil
}

// checkReport compares a node report with the statistics computed
// locally on the downloaded artifact.
func checkReport(s hcoc.SparseHistogram, qs []float64, topCode int, rep client.NodeReport) error {
	if s == nil {
		return errors.New("node missing from the artifact")
	}
	if rep.Groups != s.Groups() || rep.People != s.People() {
		return fmt.Errorf("groups/people %d/%d, artifact says %d/%d", rep.Groups, rep.People, s.Groups(), s.People())
	}
	med, err := hcoc.MedianSparse(s)
	if err != nil {
		return err
	}
	if rep.Median != med {
		return fmt.Errorf("median %d, artifact says %d", rep.Median, med)
	}
	if len(qs) > 0 {
		want, err := hcoc.QuantilesSparse(s, qs)
		if err != nil {
			return err
		}
		if len(rep.Quantiles) != len(want) {
			return fmt.Errorf("%d quantiles, want %d", len(rep.Quantiles), len(want))
		}
		for i, q := range rep.Quantiles {
			if q.Q != qs[i] || q.Size != want[i] {
				return fmt.Errorf("quantile %g = %d, artifact says %d", qs[i], q.Size, want[i])
			}
		}
	}
	if topCode > 0 {
		want, err := hcoc.TopCodedSparse(s, topCode)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual([]int64(rep.TopCoded), []int64(want)) {
			return fmt.Errorf("top-coded %v, artifact says %v", rep.TopCoded, want)
		}
	}
	return nil
}

// checkCross compares one cross-release answer with the aggregate
// computed locally on the two downloaded artifacts.
func checkCross(rels map[string]hcoc.SparseHistograms, q client.NodeQuery, res client.NodeResult) error {
	if len(q.Releases) != 2 {
		return fmt.Errorf("entry reads %d releases, want 2", len(q.Releases))
	}
	a, b := rels[q.Releases[0]][q.Node], rels[q.Releases[1]][q.Node]
	if a == nil || b == nil {
		return errors.New("node missing from an artifact")
	}
	dg, dp := b.Groups()-a.Groups(), b.People()-a.People()
	deltas := func() error {
		if res.GroupsDelta == nil || res.PeopleDelta == nil || *res.GroupsDelta != dg || *res.PeopleDelta != dp {
			return fmt.Errorf("deltas %v/%v, artifacts say %d/%d", res.GroupsDelta, res.PeopleDelta, dg, dp)
		}
		return nil
	}
	switch q.Op {
	case "emd":
		if want := hcoc.EMDSparse(a, b); res.EMD == nil || *res.EMD != want {
			return fmt.Errorf("emd %v, artifacts say %d", res.EMD, want)
		}
		return deltas()
	case "delta":
		return deltas()
	case "series":
		if len(res.Series) != 2 {
			return fmt.Errorf("series of %d points, want 2", len(res.Series))
		}
		for i, s := range []hcoc.SparseHistogram{a, b} {
			if err := checkReport(s, nil, 0, res.Series[i].NodeReport); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
		return nil
	case "compare":
		if res.Left == nil || res.Right == nil {
			return errors.New("compare answer lacks a side")
		}
		if err := checkReport(a, nil, 0, *res.Left); err != nil {
			return fmt.Errorf("left: %w", err)
		}
		if err := checkReport(b, nil, 0, *res.Right); err != nil {
			return fmt.Errorf("right: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("unknown op %q", q.Op)
	}
}

func (w *readMix) replay(ctx context.Context, s *stack, c *client.Client) (map[string]float64, error) {
	return readReplay(ctx, s.backends[0].eng, c, w.in, w.rel)
}

// ingest: one writer per client, each on its own hierarchy, appending
// one delta and then releasing the new head with a fixed seed.
type ingest struct {
	seed    int64
	writers []*writer
}

// writer is one hierarchy and the benchmark's own record of it.
type writer struct {
	in      *inputs
	hid     string
	fp      string // head fingerprint last seen, sent as If-Match
	version int64
	events  []client.Event // every acknowledged append, in order
	added   []client.EventGroup
	drawn   map[string]bool // every (leaf, size) a delta has added
	cycles  []cycle
}

// cycle is one completed append+release.
type cycle struct {
	version int64
	fp      string
	release string
}

// ingestWriters is the ingest loop's size: each writer appends to its
// own hierarchy, like two publishers' pipelines.
const ingestWriters = 2

func (w *ingest) gateway() bool           { return false }
func (w *ingest) clients() int            { return ingestWriters }
func (w *ingest) primary() (string, stat) { return "append", appendTail }
func (w *ingest) releaseSeed() int64      { return derive(w.seed, -1) }

func (w *ingest) prepare(ctx context.Context, c *client.Client) error {
	for i, wr := range w.writers {
		h, err := c.UploadHierarchy(ctx, rootName, wr.in.groups)
		if err != nil {
			return fmt.Errorf("upload %d: %w", i, err)
		}
		*wr = writer{in: wr.in, hid: h.ID, fp: h.Fingerprint, version: h.Version, drawn: make(map[string]bool)}
		// Release version 1, so the first cycle's release can reuse it.
		if _, err := c.Release(ctx, releaseRequest(wr.hid, w.releaseSeed())); err != nil {
			return fmt.Errorf("warm release %d: %w", i, err)
		}
	}
	return nil
}

func (w *ingest) loop(id, phase int) loop {
	return &ingestLoop{w: w, wr: w.writers[id], rng: rand.New(rand.NewSource(derive(w.seed, int64(phase)<<32|int64(id))))}
}

type ingestLoop struct {
	w   *ingest
	wr  *writer
	rng *rand.Rand
	n   int
}

// delta adds a group of size 1..7 at a leaf of the uploaded tree, a
// (leaf, size) no earlier delta of the writer added; every third cycle
// instead removes the oldest group an earlier cycle added. No leaf ever
// empties. A head is the uploaded groups plus the added groups still
// present; as each added group is new and removals take the oldest, that
// set never returns to an earlier one, so no head repeats an earlier
// version's content and every head release is a computation.
func (l *ingestLoop) delta() (client.Event, bool) {
	l.n++
	if l.n%3 == 0 && len(l.wr.added) > 0 {
		g := l.wr.added[0]
		return client.DeltaEvent(nil, []client.EventGroup{g}, nil), false
	}
	for {
		leaf := l.wr.in.leaves[l.rng.Intn(len(l.wr.in.leaves))]
		g := client.EventGroup{Path: leaf, Size: 1 + l.rng.Int63n(7)}
		key := fmt.Sprintf("%s#%d", strings.Join(leaf, "/"), g.Size)
		if !l.wr.drawn[key] {
			l.wr.drawn[key] = true
			return client.DeltaEvent([]client.EventGroup{g}, nil, nil), true
		}
	}
}

func (l *ingestLoop) unit(ctx context.Context, c *client.Client, tr *tracer, rec recordFunc) {
	wr := l.wr
	ev, isAdd := l.delta()
	var head client.AppendResult
	err := timed(ctx, tr, rec, "append", func(ctx context.Context) error {
		var err error
		head, err = c.AppendEvents(ctx, wr.hid, []client.Event{ev}, wr.fp)
		if err == nil && head.Head.Version != wr.version+1 {
			err = fmt.Errorf("append moved the head from version %d to %d", wr.version, head.Head.Version)
		}
		return err
	})
	if err != nil {
		return
	}
	wr.version, wr.fp = head.Head.Version, head.Head.Fingerprint
	wr.events = append(wr.events, ev)
	if isAdd {
		wr.added = append(wr.added, ev.Add[0])
	} else {
		wr.added = wr.added[1:]
	}
	var res client.Release
	err = timed(ctx, tr, rec, "head_release", func(ctx context.Context) error {
		var err error
		res, err = c.Release(ctx, releaseRequest(wr.hid, l.w.releaseSeed()))
		if err == nil && (res.Version != wr.version || res.Fingerprint != wr.fp) {
			err = fmt.Errorf("released version %d (%s), head is %d (%s)", res.Version, res.Fingerprint, wr.version, wr.fp)
		}
		if err == nil && (res.CacheHit || res.StoreHit || res.PeerHit || res.Deduped) {
			err = fmt.Errorf("head release %s was not computed (cache=%v store=%v peer=%v dedup=%v)",
				res.Release, res.CacheHit, res.StoreHit, res.PeerHit, res.Deduped)
		}
		return err
	})
	if err == nil {
		wr.cycles = append(wr.cycles, cycle{version: wr.version, fp: wr.fp, release: res.Release})
	}
}

// groupsAt rebuilds a version's groups from the uploaded groups and the
// writer's record of its appends (version 1 is the upload).
func (wr *writer) groupsAt(version int64) ([]hcoc.Group, error) {
	counts := make(map[string]map[int64]int64)
	bump := func(path []string, size, by int64) error {
		key := strings.Join(path, "/")
		if counts[key] == nil {
			counts[key] = make(map[int64]int64)
		}
		counts[key][size] += by
		if counts[key][size] < 0 {
			return fmt.Errorf("record removes a missing group of size %d at %s", size, key)
		}
		return nil
	}
	for _, g := range wr.in.groups {
		if err := bump(g.Path, g.Size, 1); err != nil {
			return nil, err
		}
	}
	for _, ev := range wr.events[:version-1] {
		for _, g := range ev.Add {
			if err := bump(g.Path, g.Size, 1); err != nil {
				return nil, err
			}
		}
		for _, g := range ev.Remove {
			if err := bump(g.Path, g.Size, -1); err != nil {
				return nil, err
			}
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []hcoc.Group
	for _, k := range keys {
		path := strings.Split(k, "/")
		for size, n := range counts[k] {
			for ; n > 0; n-- {
				out = append(out, hcoc.Group{Path: path, Size: size})
			}
		}
	}
	return out, nil
}

// treeAt rebuilds a version's tree and checks it against the head
// fingerprint the daemon acknowledged for that version.
func (wr *writer) treeAt(version int64, fp string) (*hcoc.Tree, []hcoc.Group, error) {
	groups, err := wr.groupsAt(version)
	if err != nil {
		return nil, nil, err
	}
	tree, err := hcoc.BuildHierarchy(rootName, groups)
	if err != nil {
		return nil, nil, err
	}
	if got := engine.FingerprintTree(tree); fp != "" && got != fp {
		return nil, nil, fmt.Errorf("rebuilt version %d fingerprints %s, the daemon acknowledged %s", version, got, fp)
	}
	return tree, groups, nil
}

func (w *ingest) verify(ctx context.Context, c *client.Client) error {
	checked := 0
	for i, wr := range w.writers {
		if len(wr.cycles) == 0 {
			continue
		}
		cy := wr.cycles[len(wr.cycles)-1]
		tree, _, err := wr.treeAt(cy.version, cy.fp)
		if err != nil {
			return fmt.Errorf("writer %d: %w", i, err)
		}
		raw, err := c.DownloadReleaseBytes(ctx, cy.release, "")
		if err != nil {
			return fmt.Errorf("writer %d: download %s: %w", i, cy.release, err)
		}
		want, err := hcoc.ReleaseSparse(tree, localOptions(w.releaseSeed(), 0))
		if err != nil {
			return err
		}
		if err := sameArtifact(raw, tree, want); err != nil {
			return fmt.Errorf("writer %d head version %d: %w", i, cy.version, err)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("no append+release cycle completed, nothing to check")
	}
	return nil
}

func (w *ingest) replay(ctx context.Context, s *stack, c *client.Client) (map[string]float64, error) {
	wr := w.writers[0]
	if len(wr.cycles) == 0 || wr.cycles[len(wr.cycles)-1].version < 2 {
		return nil, nil
	}
	return ingestReplay(s.dir, wr, wr.cycles[len(wr.cycles)-1], w.releaseSeed())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
