package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hcoc/internal/engine"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// sharedNode serves one node over the bucket at endpoint, as
// hcoc-serve -store-backend s3 runs it.
func sharedNode(t *testing.T, endpoint string, opts ...ServerOption) *httptest.Server {
	t.Helper()
	b, err := store.NewS3(store.S3Options{Endpoint: endpoint, Bucket: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := NewServer(engine.New(engine.Options{Store: st}), st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestSharedContinualBudget: the continual budget of a log is the
// fleet's, not each node's. b opens its account first; a then spends
// the rest, and b refuses the next draw.
func TestSharedContinualBudget(t *testing.T) {
	bucket := httptest.NewServer(s3stub.New("fleet"))
	t.Cleanup(bucket.Close)
	a := sharedNode(t, bucket.URL, WithContinualBudget(2))
	b := sharedNode(t, bucket.URL, WithContinualBudget(2))

	hr := uploadGroups(t, a, "US", smallGroups())
	release := func(node *httptest.Server, seed int64) (int, string) {
		var rel releaseResponse
		return postJSON(t, node.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: seed}, &rel)
	}
	if status, body := release(b, 1); status != http.StatusOK {
		t.Fatalf("release on b: %d: %s", status, body)
	}
	if status, body := release(a, 2); status != http.StatusOK {
		t.Fatalf("release on a: %d: %s", status, body)
	}
	status, body := release(b, 3)
	if status != http.StatusTooManyRequests || !strings.Contains(body, `"continual_budget"`) {
		t.Fatalf("b over the fleet's continual budget: %d: %s", status, body)
	}
}

// TestSharedStoreReadsOtherNodesWrites: two nodes on one bucket. What
// one writes — hierarchy, appended versions, releases — the other
// serves: healthz reports the shared store, listings and the version
// history include it, a head release resolves the appended version,
// and a head-pinned query finds the other node's artifact.
func TestSharedStoreReadsOtherNodesWrites(t *testing.T) {
	bucket := httptest.NewServer(s3stub.New("fleet"))
	t.Cleanup(bucket.Close)
	a, b := sharedNode(t, bucket.URL), sharedNode(t, bucket.URL)

	var hz healthzResponse
	if status, body := getJSON(t, b.URL+"/healthz", &hz); status != http.StatusOK || !hz.SharedStore {
		t.Fatalf("healthz = %d %+v: %s", status, hz, body)
	}

	hr := uploadGroups(t, a, "US", smallGroups())
	var app appendEventsResponse
	ev := appendEventsRequest{Events: []eventRecord{{Type: "delta", Add: []groupRecord{{Path: []string{"OR"}, Size: 3}}}}}
	if status, body := postJSON(t, a.URL+"/v1/hierarchy/"+hr.ID+"/events", ev, &app); status != http.StatusOK {
		t.Fatalf("append on a: %d: %s", status, body)
	}
	var rel releaseResponse
	if status, body := postJSON(t, a.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 4}, &rel); status != http.StatusOK {
		t.Fatalf("release on a: %d: %s", status, body)
	}

	var hs []hierarchyResponse
	if status, body := getJSON(t, b.URL+"/v1/hierarchy", &hs); status != http.StatusOK || len(hs) != 1 || hs[0].Version != 2 {
		t.Fatalf("b lists %+v (%d): %s", hs, status, body)
	}
	var rels []releaseListEntry
	if status, body := getJSON(t, b.URL+"/v1/release", &rels); status != http.StatusOK || len(rels) != 1 || rels[0].Release != rel.Release {
		t.Fatalf("b lists releases %+v (%d): %s", rels, status, body)
	}
	var q queryResponse
	if status, body := getJSON(t, b.URL+"/v1/query/US/CA?hierarchy="+hr.ID+"&q=0.5", &q); status != http.StatusOK {
		t.Fatalf("head-pinned query on b: %d: %s", status, body)
	}

	// a appends again; b's copy of the log is stale, yet its version
	// listing and its head release see version 3.
	if status, body := postJSON(t, a.URL+"/v1/hierarchy/"+hr.ID+"/events", ev, &app); status != http.StatusOK || app.Head.Version != 3 {
		t.Fatalf("second append on a: %d %+v: %s", status, app, body)
	}
	var vs versionsResponse
	if status, body := getJSON(t, b.URL+"/v1/hierarchy/"+hr.ID+"/versions", &vs); status != http.StatusOK || vs.Head != 3 {
		t.Fatalf("b versions = %+v (%d): %s", vs, status, body)
	}
	var head releaseResponse
	if status, body := postJSON(t, b.URL+"/v1/release", releaseRequest{Hierarchy: hr.ID, Epsilon: 1, K: 50, Seed: 4}, &head); status != http.StatusOK || head.Version != 3 {
		t.Fatalf("head release on b = %+v (%d): %s", head, status, body)
	}

	// b removes a group only a's latest append added: the delta is
	// valid against the durable head, not against b's stale copy.
	add := appendEventsRequest{Events: []eventRecord{{Type: "delta", Add: []groupRecord{{Path: []string{"NV"}, Size: 7}}}}}
	if status, body := postJSON(t, a.URL+"/v1/hierarchy/"+hr.ID+"/events", add, &app); status != http.StatusOK || app.Head.Version != 4 {
		t.Fatalf("third append on a: %d %+v: %s", status, app, body)
	}
	remove := appendEventsRequest{Events: []eventRecord{{Type: "delta", Remove: []groupRecord{{Path: []string{"NV"}, Size: 7}}}}}
	if status, body := postJSON(t, b.URL+"/v1/hierarchy/"+hr.ID+"/events", remove, &app); status != http.StatusOK || app.Head.Version != 5 {
		t.Fatalf("remove on b of a's group: %d %+v: %s", status, app, body)
	}
}
