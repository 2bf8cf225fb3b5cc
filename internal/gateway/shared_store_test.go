package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/store"
)

// TestGatewaySharedStore is the one multi-node model end to end, in
// process, over one S3 bucket: upload, release and append through the
// gateway, then stop the hierarchy's primary. A survivor serves the
// same release id byte-identically, accepts an append under the head's
// If-Match, and releases the new head. A cold node joined afterwards
// serves every listed release byte-identically without computing one.
func TestGatewaySharedStore(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	gw, c, gwURL := newGateway(t, 1, backends...)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.AppendEvents(ctx, h.ID, []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"OR"}, Size: 2}}, nil, nil),
	}, h.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}

	primary := byURL(t, backends, ringPrimary(t, gw, h.ID))
	primary.ts.Close()

	after, err := c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatalf("download after stopping the primary: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the release downloads differently after failover")
	}

	// A survivor appends under the head's If-Match and releases the new
	// head.
	v3, err := c.AppendEvents(ctx, h.ID, []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"NV"}, Size: 1}}, nil, nil),
	}, v2.Head.Fingerprint)
	if err != nil {
		t.Fatalf("append under the head's If-Match after failover: %v", err)
	}
	if v3.Head.Version != 3 {
		t.Fatalf("append after failover landed at version %d, want 3", v3.Head.Version)
	}
	head, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatalf("unpinned release after failover: %v", err)
	}
	if head.Version != 3 || head.Fingerprint != v3.Head.Fingerprint || head.Release == rel.Release {
		t.Fatalf("unpinned release after failover = %+v, want version 3 (%s)", head, v3.Head.Fingerprint)
	}
	if primary.eng.Metrics().Releases != 1 {
		t.Fatalf("primary computed %d releases, want 1", primary.eng.Metrics().Releases)
	}

	// A cold node joins and serves everything the fleet wrote, read
	// from the bucket: byte-identical, nothing recomputed.
	cold := newBackend(t, bucket, engine.Options{})
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: cold.ts.URL}, nil); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	arts, err := c.Releases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("listing = %+v, want 2 releases", arts)
	}
	for _, a := range arts {
		want, err := c.DownloadReleaseBytes(ctx, a.Release, "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.c.DownloadReleaseBytes(ctx, a.Release, "")
		if err != nil {
			t.Fatalf("cold node cannot serve %s: %v", a.Release, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cold node serves %s differently", a.Release)
		}
	}
	vs, err := cold.c.HierarchyVersions(ctx, h.ID)
	if err != nil || len(vs) != 3 {
		t.Fatalf("cold node versions = %+v, %v; want 3", vs, err)
	}
	if n := cold.eng.Metrics().Releases; n != 0 {
		t.Fatalf("cold node computed %d releases, want 0", n)
	}
}

// TestRepairConvergesColdJoin: a release computed while the cluster had
// a single node, then a cold second node joined at runtime over the same
// bucket. With no sweep at all the new node already holds the release:
// it lists it, serves it bit-identically, and has computed nothing and
// spent no budget, while /v1/cluster counts the join.
func TestRepairConvergesColdJoin(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	a := newBackend(t, bucket, engine.Options{})
	b := newBackend(t, bucket, engine.Options{})
	_, c, gwURL := newGateway(t, 1, a)

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	var nr nodeResponse
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: b.ts.URL}, &nr); code != http.StatusOK || !nr.Changed {
		t.Fatalf("join: status %d, reply %+v", code, nr)
	}

	arts, err := b.c.Releases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Release != rel.Release {
		t.Fatalf("cold node listing = %+v, want %s", arts, rel.Release)
	}
	want, err := a.c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatalf("cold node cannot serve %s: %v", rel.Release, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cold node serves the release differently")
	}
	if m := b.eng.Metrics(); m.Releases != 0 || m.EpsilonSpent != 0 {
		t.Fatalf("cold node computed %d releases and spent epsilon %v, want none", m.Releases, m.EpsilonSpent)
	}

	var cr clusterResponse
	resp, err := http.Get(gwURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Joins != 1 || len(cr.Backends) != 2 {
		t.Fatalf("cluster after join = joins %d, %d backends; want 1, 2", cr.Joins, len(cr.Backends))
	}
}

// TestGatewayEjectsPrivateBackend: a backend whose /healthz says it
// does not mount the shared store is ejected by its first probe, with
// a last error naming the reason, and takes no traffic afterwards —
// not when it is a key's ring primary and the next owner dies, and not
// when every shared backend is ejected too. A forwarded request's
// success never re-admits it.
func TestGatewayEjectsPrivateBackend(t *testing.T) {
	ctx := context.Background()
	bucket := newBucket(t)
	s1 := newBackend(t, bucket, engine.Options{})
	s2 := newBackend(t, bucket, engine.Options{})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	private := serveBackend(t, engine.Options{Store: st})
	gw, c, gwURL := newGateway(t, 2, s1, s2, private)

	// Before any probe every backend is a candidate: find a hierarchy
	// whose ring order is the private backend, then a shared one.
	var groups []hcoc.Group
	var next *backendFixture
	for i := 0; i < 200 && next == nil; i++ {
		g := append(testGroups(), hcoc.Group{Path: []string{"NV"}, Size: int64(i + 1)})
		tree, err := hcoc.BuildHierarchy("US", g)
		if err != nil {
			t.Fatal(err)
		}
		route, err := gw.Cluster().Route(engine.FingerprintTree(tree))
		if err != nil {
			t.Fatal(err)
		}
		if route[0] == private.ts.URL {
			groups, next = g, byURL(t, []*backendFixture{s1, s2}, route[1])
		}
	}
	if next == nil {
		t.Fatal("no hierarchy has the private backend as its ring primary")
	}

	gw.Cluster().ProbeNow(ctx)
	var cl clusterResponse
	resp, err := http.Get(gwURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&cl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cl.Backends {
		if b.URL == private.ts.URL && (b.Healthy || !strings.Contains(b.LastError, "shared_store=false")) {
			t.Fatalf("disk-backed backend = %+v, want ejected naming shared_store", b)
		} else if b.URL != private.ts.URL && (!b.Healthy || b.LastError != "") {
			t.Fatalf("shared backend = %+v, want healthy", b)
		}
	}
	if cl.Live != 2 {
		t.Fatalf("live = %d, want 2", cl.Live)
	}

	// The shared owner after the private primary dies; the key's
	// traffic must fail over to the other shared backend.
	next.ts.Close()
	h, err := c.UploadHierarchy(ctx, "US", groups)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendEvents(ctx, h.ID, []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"OR"}, Size: 2}}, nil, nil),
	}, h.Fingerprint); err != nil {
		t.Fatal(err)
	}

	// Every shared backend ejected as well: the last resort is the
	// ejected shared backends, never the private one, although it
	// comes first in the hierarchy's ring order.
	for _, u := range []string{s1.ts.URL, s2.ts.URL} {
		gw.Cluster().ReportFailure(u, errors.New("blip"))
		gw.Cluster().ReportFailure(u, errors.New("blip"))
	}
	head, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 3})
	if err != nil || head.Version != 2 {
		t.Fatalf("head release through a fully ejected fleet = %+v, %v", head, err)
	}
	if _, err := c.Query(ctx, rel.Release, "US/CA", client.QueryParams{Quantiles: []float64{0.5}}); err != nil {
		t.Fatalf("query of the first release: %v", err)
	}

	for _, b := range gw.Cluster().States() {
		if b.URL == private.ts.URL && b.Healthy {
			t.Fatalf("the private backend was re-admitted: %+v", b)
		}
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if n := gw.stats[private.ts.URL].requests; n != 0 {
		t.Fatalf("the ejected disk-backed backend took %d requests", n)
	}
}
