package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/histogram"
	"hcoc/internal/serve"
)

// countingBackend is an in-process backend over the fleet bucket whose
// artifact downloads (GET /v1/release/{id}) and batch requests are
// counted — the probe for the gateway's forward-whole contract.
type countingBackend struct {
	fixture   *backendFixture
	downloads atomic.Int64
	batches   atomic.Int64
}

func newCountingBackend(t *testing.T, bucket string) *countingBackend {
	t.Helper()
	cb := &countingBackend{}
	st := sharedStore(t, bucket)
	eng := engine.New(engine.Options{Store: st})
	srv, err := serve.NewServer(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/release/"):
			cb.downloads.Add(1)
		case r.URL.Path == "/v1/query/batch":
			cb.batches.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	cb.fixture = &backendFixture{ts: ts, eng: eng, c: c}
	return cb
}

// TestGatewayCrossReleaseBatch drives a multi-release batch through the
// gateway: a 16-query batch spanning two releases is forwarded whole —
// one batch request to one backend, no artifact downloads at all —
// and its answers match computing from the downloaded artifacts. The
// backend reads a release it did not compute from the shared store.
func TestGatewayCrossReleaseBatch(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	cbs := []*countingBackend{newCountingBackend(t, bucket), newCountingBackend(t, bucket)}
	_, c, _ := newGateway(t, 1, cbs[0].fixture, cbs[1].fixture)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]string, 2)
	for i, seed := range []int64{7, 8} {
		r, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r.Release
	}

	downloads := func() int64 { return cbs[0].downloads.Load() + cbs[1].downloads.Load() }
	batches := func() int64 { return cbs[0].batches.Load() + cbs[1].batches.Load() }
	base, baseBatches := downloads(), batches()

	// 16 queries over 2 releases: one forwarded batch, no downloads.
	queries := make([]client.NodeQuery, 16)
	nodes := []string{"US", "US/CA", "US/WA", "US/CA"}
	ops := []string{"emd", "delta", "series", "compare"}
	for i := range queries {
		queries[i] = client.NodeQuery{Op: ops[i%4], Releases: rels, Node: nodes[i%4]}
	}
	results, err := c.BatchQuery(ctx, "", queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := downloads() - base; got != 0 {
		t.Fatalf("cross batch made %d artifact downloads, want 0", got)
	}
	if got := batches() - baseBatches; got != 1 {
		t.Fatalf("cross batch reached backends %d times, want 1 (forwarded whole)", got)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("query %d (%s): %s", i, queries[i].Op, res.Error)
		}
	}

	// The gateway's answers equal computing from the raw artifacts.
	relA, _, err := c.DownloadRelease(ctx, rels[0])
	if err != nil {
		t.Fatal(err)
	}
	relB, _, err := c.DownloadRelease(ctx, rels[1])
	if err != nil {
		t.Fatal(err)
	}
	wantEMD := histogram.EMDSparse(relA["US"], relB["US"])
	if results[0].EMD == nil || *results[0].EMD != wantEMD {
		t.Fatalf("EMD = %v, want %d", results[0].EMD, wantEMD)
	}
	wantGroups := relB["US/CA"].Groups() - relA["US/CA"].Groups()
	if results[1].GroupsDelta == nil || *results[1].GroupsDelta != wantGroups {
		t.Fatalf("GroupsDelta = %v, want %d", results[1].GroupsDelta, wantGroups)
	}
	series := results[2]
	if len(series.Series) != 2 || series.Series[0].Release != rels[0] || series.Series[1].Release != rels[1] {
		t.Fatalf("series = %+v", series.Series)
	}
	if series.Series[0].Groups != relA["US/WA"].Groups() || series.Series[1].Groups != relB["US/WA"].Groups() {
		t.Fatalf("series groups = %d, %d; want %d, %d",
			series.Series[0].Groups, series.Series[1].Groups, relA["US/WA"].Groups(), relB["US/WA"].Groups())
	}
	compare := results[3]
	if compare.Left == nil || compare.Right == nil || compare.Left.Groups != relA["US/CA"].Groups() {
		t.Fatalf("compare = %+v", compare)
	}

	// A release the store does not hold fails its queries, not the
	// batch.
	mixed, err := c.BatchQuery(ctx, "", []client.NodeQuery{
		{Op: "emd", Releases: []string{rels[0], "r-nope"}, Node: "US"},
		{Op: "emd", Releases: rels, Node: "US"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Error == "" || mixed[1].Error != "" {
		t.Fatalf("mixed availability: %+v", mixed)
	}
}
