package gateway

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/serve"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// backendFixture is one in-process hcoc-serve node.
type backendFixture struct {
	ts  *httptest.Server
	eng *engine.Engine
	c   *client.Client
}

// newBucket starts an in-process S3 stub and returns its URL: the
// shared store of one test fleet.
func newBucket(t *testing.T) string {
	t.Helper()
	stub := httptest.NewServer(s3stub.New("hcoc"))
	t.Cleanup(stub.Close)
	return stub.URL
}

// sharedStore opens one node's store over the fleet bucket at endpoint.
func sharedStore(t *testing.T, endpoint string) *store.Store {
	t.Helper()
	b, err := store.NewS3(store.S3Options{Endpoint: endpoint, Bucket: "hcoc", Prefix: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// newBackend starts one node over the fleet bucket, as hcoc-serve
// -store-backend s3 runs it.
func newBackend(t *testing.T, bucket string, opts engine.Options) *backendFixture {
	t.Helper()
	opts.Store = sharedStore(t, bucket)
	return serveBackend(t, opts)
}

// serveBackend serves an engine over opts.Store (nil: memory only).
func serveBackend(t *testing.T, opts engine.Options) *backendFixture {
	t.Helper()
	eng := engine.New(opts)
	srv, err := serve.NewServer(eng, opts.Store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return &backendFixture{ts: ts, eng: eng, c: c}
}

// newGateway wires a gateway over the fixtures, with fast-fail client
// settings and no background probing (tests drive health explicitly
// through the request path or ProbeNow).
func newGateway(t *testing.T, thresh int, backends ...*backendFixture) (*Gateway, *client.Client, string) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	gw, err := New(Options{
		Backends:      urls,
		FailThreshold: thresh,
		ClientOptions: []client.Option{client.WithMaxRetries(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return gw, c, ts.URL
}

// ringPrimary is the backend a hierarchy's requests go to first while
// the whole fleet is live.
func ringPrimary(t *testing.T, gw *Gateway, id string) string {
	t.Helper()
	route, err := gw.Cluster().Route(hierarchyFP(id))
	if err != nil {
		t.Fatal(err)
	}
	return route[0]
}

func testGroups() []hcoc.Group {
	var groups []hcoc.Group
	for i := 0; i < 40; i++ {
		groups = append(groups, hcoc.Group{Path: []string{"CA"}, Size: int64(i%7 + 1)})
		groups = append(groups, hcoc.Group{Path: []string{"WA"}, Size: int64(i%4 + 1)})
	}
	return groups
}

// byURL maps a backend URL back to its fixture.
func byURL(t *testing.T, backends []*backendFixture, url string) *backendFixture {
	t.Helper()
	for _, b := range backends {
		if b.ts.URL == url {
			return b
		}
	}
	t.Fatalf("no backend fixture for %q", url)
	return nil
}

// TestGatewayClusterFailover is the failover path end to end, in
// process: a release computed on the hierarchy's ring owner, the owner
// killed, and the same release's queries — and the identical release
// request — keep being served, bit-identically, by the next backend in
// ring order from the shared store, while /v1/cluster reports the
// ejection.
func TestGatewayClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, _ := newGateway(t, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rel.CacheHit || rel.Deduped {
		t.Fatalf("first release was not a fresh computation: %+v", rel)
	}
	// The release ran on the hierarchy's ring owner, and only there.
	primary := byURL(t, backends, ringPrimary(t, gw, h.ID))
	for _, b := range backends {
		if got, want := b.eng.Metrics().Releases, uint64(0); b == primary {
			want = 1
			if got != want {
				t.Fatalf("primary computed %d releases, want 1", got)
			}
		} else if got != want {
			t.Fatalf("backend %s computed %d releases, want 0", b.ts.URL, got)
		}
	}

	before, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5, 0.9}})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the primary outright: connections die mid-flight, the
	// listener closes — the in-process kill -9.
	primary.ts.Close()

	after, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5, 0.9}})
	if err != nil {
		t.Fatalf("query after killing the primary: %v", err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("failover answer differs:\nbefore %+v\nafter  %+v", before, after)
	}

	// The same release request is still served — from the shared store,
	// not a recomputation (a recompute would draw fresh noise and break
	// the bit-identical guarantee above).
	again, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatalf("release after killing the primary: %v", err)
	}
	if again.Release != rel.Release || !(again.StoreHit || again.CacheHit) {
		t.Fatalf("post-failover release = %+v, want a store hit on %s", again, rel.Release)
	}
	for _, b := range backends {
		if b != primary && b.eng.Metrics().Releases != 0 {
			t.Fatalf("survivor %s recomputed the release", b.ts.URL)
		}
	}

	// Topology reflects the ejection (FailThreshold 1: a failed forward
	// above ejected it).
	for _, st := range gw.Cluster().States() {
		if st.URL == primary.ts.URL && (st.Healthy || st.Ejections == 0) {
			t.Fatalf("primary not ejected after failover: %+v", st)
		}
	}

	// Batch queries keep working through a survivor too.
	results, err := c.BatchQuery(ctx, rel.Release, []client.NodeQuery{
		{Node: "US/CA", Quantiles: []float64{0.5}},
		{Node: "US/WA", Quantiles: []float64{0.5}},
	})
	if err != nil || len(results) != 2 || results[0].Error != "" || results[1].Error != "" {
		t.Fatalf("batch after failover: %v, %+v", err, results)
	}

	// Kill everything: the typed all-backends-down path surfaces as
	// 503s and a failing healthz. A probe sweep notices the corpses
	// that the request path never touched.
	for _, b := range backends {
		b.ts.Close()
	}
	gw.Cluster().ProbeNow(ctx)
	if err := c.Healthz(ctx); err == nil {
		t.Fatal("gateway healthz still ok with every backend dead")
	}
	var ae *client.APIError
	_, err = c.Query(ctx, rel.Release, "US/CA", client.QueryParams{})
	if !errors.As(err, &ae) || (ae.StatusCode != http.StatusServiceUnavailable && ae.StatusCode != http.StatusBadGateway) {
		t.Fatalf("all-down query error = %v, want 502/503", err)
	}
}

// TestGatewayListings: distinct hierarchies route to distinct ring
// primaries, yet one forwarded listing names them all — every backend
// lists the whole shared store — and releases computed on different
// backends list and query through the gateway.
func TestGatewayListings(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, _ := newGateway(t, 2, backends...)

	// Upload several distinct hierarchies; with consistent hashing
	// their primaries spread across backends.
	var ids []string
	roots := map[string]string{}
	owners := map[string]bool{}
	for i := 0; i < 6; i++ {
		groups := []hcoc.Group{
			{Path: []string{"A"}, Size: int64(i + 1)},
			{Path: []string{"B"}, Size: int64(2*i + 3)},
			{Path: []string{"B"}, Size: 1},
		}
		root := fmt.Sprintf("root%d", i)
		h, err := c.UploadHierarchy(ctx, root, groups)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID)
		roots[h.ID] = root
		owners[ringPrimary(t, gw, h.ID)] = true
	}
	if len(owners) < 2 {
		t.Fatal("all hierarchies route to one backend; the ring is not sharding")
	}
	listed, err := c.Hierarchies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(ids) {
		t.Fatalf("gateway listing has %d hierarchies, want %d", len(listed), len(ids))
	}
	for _, b := range backends {
		hs, err := b.c.Hierarchies(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) != len(ids) {
			t.Fatalf("backend %s lists %d hierarchies, want all %d", b.ts.URL, len(hs), len(ids))
		}
	}

	// Releases on hierarchies owned by different backends, then the
	// durable listing and queries through the gateway.
	var rels []string
	for _, id := range ids {
		rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: id, Epsilon: 1, K: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel.Release)
		if _, err := c.Query(ctx, rel.Release, roots[id], client.QueryParams{Quantiles: []float64{0.5}}); err != nil {
			t.Fatalf("query on %s: %v", rel.Release, err)
		}
	}
	arts, err := c.Releases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(rels) {
		t.Fatalf("gateway lists %d artifacts, want %d", len(arts), len(rels))
	}
}

// TestGatewayAsyncJob: async releases run on one backend; the gateway
// remembers which and serves polls — after forgetting the hint too, by
// asking every live backend — and the finished release is queryable.
func TestGatewayAsyncJob(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, _ := newGateway(t, 2, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.ReleaseAsync(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, job.Job, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || done.Release == "" {
		t.Fatalf("job = %+v", done)
	}
	// A restarted gateway has no job hints; the poll still finds the
	// job, whichever backend runs it.
	gw.mu.Lock()
	gw.jobOwner = map[string]string{}
	gw.mu.Unlock()
	if again, err := c.Job(ctx, job.Job); err != nil || again.Release != done.Release {
		t.Fatalf("poll without the hint = %+v, %v", again, err)
	}
	if _, err := c.Query(ctx, done.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5}}); err != nil {
		t.Fatalf("querying async release: %v", err)
	}
}

// TestGatewayHealsAfterFullEjection: a stale whole-fleet ejection (a
// transient gateway-side blip) must be healable by the request path —
// routing tries the ejected backends instead of refusing with 503
// until a probe sweep happens to run.
func TestGatewayHealsAfterFullEjection(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, _ := newGateway(t, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}

	// Eject everything without touching the (perfectly healthy)
	// backends.
	for _, b := range backends {
		gw.Cluster().ReportFailure(b.ts.URL, errors.New("transient blip"))
	}
	if live := gw.Cluster().Live(); len(live) != 0 {
		t.Fatalf("live = %v, want none", live)
	}

	// The next release must go through — and re-admit the fleet.
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 2}); err != nil {
		t.Fatalf("release through a fully (and wrongly) ejected fleet: %v", err)
	}
	if live := gw.Cluster().Live(); len(live) == 0 {
		t.Fatal("request-path success did not re-admit any backend")
	}
}

// TestGatewayBudgetPassthrough: budget reads route to the owning
// backend, and a budget refusal crosses the gateway as the typed 429.
func TestGatewayBudgetPassthrough(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{MaxEpsilonPerHierarchy: 1}),
		newBackend(t, bucket, engine.Options{MaxEpsilonPerHierarchy: 1}),
	}
	_, c, _ := newGateway(t, 2, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 0.6, K: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := c.Budget(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Enforced || b.SpentEpsilon != 0.6 {
		t.Fatalf("budget = %+v", b)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 0.6, K: 50, Seed: 2})
	var be *client.BudgetError
	if !errors.As(err, &be) || be.RemainingEpsilon != 0.4 {
		t.Fatalf("over-budget err = %v, want BudgetError with 0.4 remaining", err)
	}
}

// TestGatewayBadRequests pins the 4xx surface: they must not burn
// failover attempts or eject backends.
func TestGatewayBadRequests(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	b := newBackend(t, bucket, engine.Options{})
	gw, c, base := newGateway(t, 1, b)

	cases := []struct {
		name string
		do   func() error
		code int
	}{
		{"unknown hierarchy", func() error {
			_, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: "h-nope", Epsilon: 1})
			return err
		}, http.StatusNotFound},
		{"bad epsilon", func() error {
			h, err := c.UploadHierarchy(ctx, "US", testGroups())
			if err != nil {
				return err
			}
			_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: -1})
			return err
		}, http.StatusBadRequest},
		{"missing release on query", func() error {
			resp, err := http.Get(base + "/v1/query/US?release=")
			if err != nil {
				return err
			}
			resp.Body.Close()
			return &client.APIError{StatusCode: resp.StatusCode}
		}, http.StatusBadRequest},
		{"unknown job", func() error {
			_, err := c.Job(ctx, "j-nope")
			return err
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		err := tc.do()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != tc.code {
			t.Fatalf("%s: err = %v, want status %d", tc.name, err, tc.code)
		}
	}
	if live := gw.Cluster().Live(); len(live) != 1 {
		t.Fatalf("4xx traffic ejected the backend: live = %v", live)
	}
}

// TestGatewayRoutesStable pins the gateway surface: the backend routes
// plus /v1/cluster, minus the per-node /v1/tenants view.
func TestGatewayRoutesStable(t *testing.T) {
	bucket := newBucket(t)
	b := newBackend(t, bucket, engine.Options{})
	gw, _, _ := newGateway(t, 1, b)
	var got []string
	for _, rt := range gw.Routes() {
		got = append(got, rt.Method+" "+rt.Pattern)
	}
	want := []string{
		"POST /v1/hierarchy",
		"GET /v1/hierarchy",
		"POST /v1/hierarchy/{id}/events",
		"GET /v1/hierarchy/{id}/versions",
		"POST /v1/release",
		"GET /v1/release",
		"GET /v1/release/{id}",
		"GET /v1/jobs/{id}",
		"POST /v1/query/batch",
		"GET /v1/query/{node...}",
		"GET /v1/budget/{id}",
		"GET /v1/cluster",
		"POST /v1/cluster/nodes",
		"DELETE /v1/cluster/nodes",
		"GET /healthz",
		"GET /metrics",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("routes changed:\ngot  %v\nwant %v", got, want)
	}
}

// TestGatewayMetrics smoke-tests the Prometheus surface.
func TestGatewayMetrics(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	b := newBackend(t, bucket, engine.Options{})
	_, c, _ := newGateway(t, 1, b)
	if _, err := c.UploadHierarchy(ctx, "US", testGroups()); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hcoc_gateway_backends 1",
		"hcoc_gateway_live_backends 1",
		"hcoc_gateway_failovers_total 0",
		"hcoc_gateway_backend_requests_total{backend=",
		"hcoc_gateway_backend_healthy{backend=",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestGatewayTenantTraffic pins the gateway's per-tenant QoS view: the
// release traffic it forwards is attributed to the owning hierarchy in
// both /v1/cluster and /metrics, with backend compute-queue 429s
// (Retry-After present) counted as throttled.
func TestGatewayTenantTraffic(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	b := newBackend(t, bucket, engine.Options{ComputeSlots: 1, ComputeQueueDepth: 1})
	_, c, gwURL := newGateway(t, 1, b)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Hold the backend's only slot, queue a second release behind it,
	// then overflow the depth-1 queue: the gateway must surface the
	// backend's 429 and book it as throttled for this tenant.
	hold, err := b.eng.Scheduler().Acquire(ctx, "hog")
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 2})
		queued <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for b.eng.Scheduler().Snapshot().Queued < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("release never queued behind the held slot")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.RetryAfter <= 0 {
		t.Fatalf("overflow through gateway = %v, want 429 with Retry-After", err)
	}
	hold.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued release failed after slot freed: %v", err)
	}

	var cs clusterResponse
	resp, err := http.Get(gwURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Tenants) != 1 {
		t.Fatalf("cluster tenants = %+v, want exactly one", cs.Tenants)
	}
	ten := cs.Tenants[0]
	if ten.Tenant != h.ID || ten.Requests != 3 || ten.Errors != 1 || ten.Throttled != 1 {
		t.Fatalf("tenant traffic = %+v, want %s with 3 requests, 1 error, 1 throttled", ten, h.ID)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hcoc_gateway_tenant_requests_total{tenant="` + h.ID + `"} 3`,
		`hcoc_gateway_tenant_errors_total{tenant="` + h.ID + `"} 1`,
		`hcoc_gateway_tenant_throttled_total{tenant="` + h.ID + `"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestGatewayArtifactsAndTopology covers the remaining read surface:
// artifact downloads in both formats through the gateway, the durable
// listing, and /v1/cluster topology (including ?key routing and
// probe-learned instance ids).
func TestGatewayArtifactsAndTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration skipped in -short mode")
	}
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, base := newGateway(t, 2, backends...)
	gw.Start()
	defer gw.Stop()

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Artifact downloads through the gateway, both formats, agreeing
	// with each other.
	sparse, epsS, err := c.DownloadRelease(ctx, rel.Release)
	if err != nil {
		t.Fatal(err)
	}
	dense, epsD, err := c.DownloadReleaseDense(ctx, rel.Release)
	if err != nil {
		t.Fatal(err)
	}
	if epsS != 1 || epsD != 1 || len(sparse) != len(dense) {
		t.Fatalf("artifact formats disagree: eps %g/%g, nodes %d/%d", epsS, epsD, len(sparse), len(dense))
	}
	if resp, err := http.Get(base + "/v1/release/" + rel.Release + "?format=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// The durable listing names the artifact once.
	arts, err := c.Releases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Release != rel.Release || arts[0].Hierarchy != h.ID {
		t.Fatalf("listing = %+v", arts)
	}

	// Topology introspection: probes recorded each backend's engine
	// instance, and ?key resolves the failover route.
	gw.Cluster().ProbeNow(ctx)
	resp, err := http.Get(base + "/v1/cluster?key=" + h.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo struct {
		VirtualNodes int `json:"virtual_nodes"`
		Live         int `json:"live"`
		Backends     []struct {
			URL      string `json:"url"`
			Healthy  bool   `json:"healthy"`
			Instance string `json:"instance"`
			Requests uint64 `json:"requests"`
		} `json:"backends"`
		Route []string `json:"route"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.Live != 2 || len(topo.Backends) != 2 || len(topo.Route) != 2 {
		t.Fatalf("topology = %+v", topo)
	}
	for _, b := range topo.Backends {
		fx := byURL(t, backends, b.URL)
		if b.Instance != fx.eng.ID() {
			t.Fatalf("backend %s instance %q, engine %q", b.URL, b.Instance, fx.eng.ID())
		}
		if !b.Healthy {
			t.Fatalf("backend state %+v", b)
		}
	}
}

// TestGatewayTransportConventions: the gateway speaks the same wire
// conventions as a backend — gzip request bodies, 415 on wrong
// Content-Type/Encoding, 400 on malformed JSON.
func TestGatewayTransportConventions(t *testing.T) {
	bucket := newBucket(t)
	b := newBackend(t, bucket, engine.Options{})
	_, _, base := newGateway(t, 1, b)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte(`{"root":"US","groups":[{"path":["CA"],"size":3}]}`))
	_ = zw.Close()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/hierarchy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzipped upload: status %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, ct, ce, body string
		want               int
	}{
		{"wrong content type", "text/csv", "", "x", http.StatusUnsupportedMediaType},
		{"wrong encoding", "application/json", "br", "{}", http.StatusUnsupportedMediaType},
		{"malformed json", "application/json", "", "{", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/hierarchy", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.ct)
		if tc.ce != "" {
			req.Header.Set("Content-Encoding", tc.ce)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
