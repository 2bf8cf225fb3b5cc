package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"hcoc/internal/engine"
)

// postJSON hits a gateway admin endpoint and decodes the reply.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func del(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestNodeAdminEndpoints pins the membership API: joins and drains
// take effect immediately, duplicates are no-ops, unknowns 404, and
// the last backend cannot be drained (409).
func TestNodeAdminEndpoints(t *testing.T) {
	bucket := newBucket(t)
	a := newBackend(t, bucket, engine.Options{})
	b := newBackend(t, bucket, engine.Options{})
	c := newBackend(t, bucket, engine.Options{})
	gw, _, gwURL := newGateway(t, 1, a, b)

	var nr nodeResponse
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: c.ts.URL}, &nr); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if !nr.Changed || nr.Backends != 3 {
		t.Fatalf("join reply = %+v", nr)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: c.ts.URL}, &nr); code != http.StatusOK || nr.Changed {
		t.Fatalf("duplicate join: status %d, reply %+v", code, nr)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{URL: "no-scheme:8080"}, nil); code != http.StatusBadRequest {
		t.Fatalf("schemeless join: status %d", code)
	}
	if code := postJSON(t, gwURL+"/v1/cluster/nodes", nodeRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty join: status %d", code)
	}

	if code := del(t, gwURL+"/v1/cluster/nodes?url=http://nope.invalid"); code != http.StatusNotFound {
		t.Fatalf("unknown drain: status %d", code)
	}
	if code := del(t, gwURL+"/v1/cluster/nodes"); code != http.StatusBadRequest {
		t.Fatalf("drain without url: status %d", code)
	}
	for _, u := range []string{c.ts.URL, b.ts.URL} {
		if code := del(t, gwURL+"/v1/cluster/nodes?url="+u); code != http.StatusOK {
			t.Fatalf("drain %s: status %d", u, code)
		}
	}
	if code := del(t, gwURL+"/v1/cluster/nodes?url="+a.ts.URL); code != http.StatusConflict {
		t.Fatalf("draining the last backend: status %d, want 409", code)
	}
	if got := gw.Cluster().Backends(); len(got) != 1 || got[0] != a.ts.URL {
		t.Fatalf("backends after churn = %v", got)
	}
}
