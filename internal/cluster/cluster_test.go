package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcoc/internal/engine"
	"hcoc/internal/serve"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

func newCluster(t *testing.T, backends []string, thresh int) *Cluster {
	t.Helper()
	c, err := New(Options{
		Backends:      backends,
		FailThreshold: thresh,
		Probe: func(ctx context.Context, url string) (string, error) {
			return "test-instance", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := New(Options{Backends: []string{""}}); err == nil {
		t.Fatal("empty backend URL accepted")
	}
	// Duplicates collapse.
	c, err := New(Options{Backends: []string{"u1", "u1", "u2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Backends(); len(got) != 2 {
		t.Fatalf("backends = %v", got)
	}
}

// TestAddRemoveBackend pins runtime membership: joins and leaves take
// effect immediately, duplicates and unknowns answer distinctly, and
// the last backend cannot leave.
func TestAddRemoveBackend(t *testing.T) {
	c := newCluster(t, []string{"u1", "u2"}, 1)

	joined, err := c.AddBackend("u3")
	if err != nil || !joined {
		t.Fatalf("AddBackend(u3) = %v, %v", joined, err)
	}
	if got := c.Backends(); len(got) != 3 {
		t.Fatalf("backends after join = %v", got)
	}
	// A joining node starts healthy: it must be routable immediately,
	// before the first probe tick.
	if len(c.Live()) != 3 {
		t.Fatalf("live after join = %v", c.Live())
	}
	// Re-joining is a no-op, not an error.
	if joined, err = c.AddBackend("u3"); err != nil || joined {
		t.Fatalf("duplicate AddBackend = %v, %v", joined, err)
	}
	if _, err = c.AddBackend(""); err == nil {
		t.Fatal("empty URL joined")
	}

	if err := c.RemoveBackend("nope"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("RemoveBackend(unknown) = %v", err)
	}
	if err := c.RemoveBackend("u3"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveBackend("u2"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveBackend("u1"); !errors.Is(err, ErrLastBackend) {
		t.Fatalf("removing the last backend = %v, want ErrLastBackend", err)
	}
	if got := c.Backends(); len(got) != 1 || got[0] != "u1" {
		t.Fatalf("backends after churn = %v", got)
	}
}

// TestMembershipRoutesKeys: a join takes over part of the keyspace and
// a leave hands it back — the ring the router consults is the live one.
func TestMembershipRoutesKeys(t *testing.T) {
	c := newCluster(t, []string{"u1", "u2", "u3"}, 1)
	before := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("fp-%d", i)
		before[k] = primary(t, c, k)
	}
	if _, err := c.AddBackend("u4"); err != nil {
		t.Fatal(err)
	}
	tookOver := 0
	for k, prev := range before {
		now := primary(t, c, k)
		if now != prev {
			if now != "u4" {
				t.Fatalf("key %q moved %q -> %q, not to the joining node", k, prev, now)
			}
			tookOver++
		}
	}
	if tookOver == 0 {
		t.Fatal("joining node took over no keys")
	}
	if err := c.RemoveBackend("u4"); err != nil {
		t.Fatal(err)
	}
	for k, prev := range before {
		if now := primary(t, c, k); now != prev {
			t.Fatalf("key %q owned by %q after the node left, was %q", k, now, prev)
		}
	}
}

// primary is key's first choice while the whole fleet is live.
func primary(t *testing.T, c *Cluster, key string) string {
	t.Helper()
	route, err := c.Route(key)
	if err != nil {
		t.Fatal(err)
	}
	return route[0]
}

// TestRouteFailoverOrder: a key's route is the whole ring in ring
// order; ejecting the primary moves it behind every live backend, kept
// at the tail as a last resort.
func TestRouteFailoverOrder(t *testing.T) {
	c := newCluster(t, []string{"u1", "u2", "u3"}, 1)
	const key = "fp-123"
	ring := c.ring.Replicas(key, 3)
	route, err := c.Route(key)
	if err != nil || fmt.Sprint(route) != fmt.Sprint(ring) {
		t.Fatalf("all-healthy route %v (err %v), want ring order %v", route, err, ring)
	}

	c.ReportFailure(ring[0], errors.New("connection refused"))
	route, err = c.Route(key)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{ring[1], ring[2], ring[0]}; fmt.Sprint(route) != fmt.Sprint(want) {
		t.Fatalf("route after ejecting primary = %v, want %v", route, want)
	}

	// Re-admission via request-path success restores ring order.
	c.ReportSuccess(ring[0])
	route, _ = c.Route(key)
	if fmt.Sprint(route) != fmt.Sprint(ring) {
		t.Fatalf("route after re-admission = %v, want %v", route, ring)
	}
}

// TestRouteAllDown: with every backend ejected the route still names
// them all (an ejection may be stale); the typed all-backends-down
// error is for a fleet with nothing left to try.
func TestRouteAllDown(t *testing.T) {
	c := newCluster(t, []string{"u1", "u2"}, 1)
	c.ReportFailure("u1", errors.New("down"))
	c.ReportFailure("u2", errors.New("down"))
	if live := c.Live(); len(live) != 0 {
		t.Fatalf("live = %v", live)
	}
	if route, err := c.Route("k"); err != nil || len(route) != 2 {
		t.Fatalf("all-ejected route = %v (err %v), want both backends", route, err)
	}
	// One backend recovering puts it first.
	c.ReportSuccess("u2")
	if route, err := c.Route("k"); err != nil || route[0] != "u2" {
		t.Fatalf("route after recovery = %v (err %v)", route, err)
	}
}

// TestPrivateBackendIsSticky: a probe that finds a backend without the
// shared store ejects it at once and takes it out of every route. A
// forwarded request's success does not re-admit it; a probe that finds
// the store mounted does.
func TestPrivateBackendIsSticky(t *testing.T) {
	var mu sync.Mutex
	shared := map[string]bool{"u1": true, "u2": false}
	c, err := New(Options{
		Backends:      []string{"u1", "u2"},
		FailThreshold: 3,
		Probe: func(ctx context.Context, url string) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if !shared[url] {
				return "i", ErrNotShared
			}
			return "i", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c.ProbeNow(ctx)
	if live := c.Live(); fmt.Sprint(live) != "[u1]" {
		t.Fatalf("live after one probe = %v, want [u1]", live)
	}
	c.ReportSuccess("u2")
	c.ReportFailure("u1", errors.New("down"))
	c.ReportFailure("u1", errors.New("down"))
	c.ReportFailure("u1", errors.New("down"))
	for i := 0; i < 50; i++ {
		route, err := c.Route(fmt.Sprintf("fp-%d", i))
		if err != nil || fmt.Sprint(route) != "[u1]" {
			t.Fatalf("route = %v (err %v), want only the ejected shared backend", route, err)
		}
	}
	if st := c.States()[1]; st.Healthy || !strings.Contains(st.LastError, "shared_store=false") {
		t.Fatalf("private backend state = %+v", st)
	}
	// With u1 gone too, nothing is left to route to.
	if err := c.RemoveBackend("u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Route("k"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("route over a private-only fleet: %v, want ErrNoBackends", err)
	}

	mu.Lock()
	shared["u2"] = true
	mu.Unlock()
	c.ProbeNow(ctx)
	if route, err := c.Route("k"); err != nil || fmt.Sprint(route) != "[u2]" {
		t.Fatalf("route after the store is mounted = %v (err %v)", route, err)
	}
}

// TestFailureThreshold: ejection takes the configured number of
// consecutive failures, and any success resets the count.
func TestFailureThreshold(t *testing.T) {
	c := newCluster(t, []string{"u1"}, 3)
	fail := func() { c.ReportFailure("u1", errors.New("x")) }
	fail()
	fail()
	if len(c.Live()) != 1 {
		t.Fatal("ejected below the threshold")
	}
	c.ReportSuccess("u1") // resets the streak
	fail()
	fail()
	if len(c.Live()) != 1 {
		t.Fatal("success did not reset the failure streak")
	}
	fail()
	if len(c.Live()) != 0 {
		t.Fatal("not ejected at the threshold")
	}
	st := c.States()
	if len(st) != 1 || st[0].Ejections != 1 || st[0].Healthy || st[0].LastError != "x" {
		t.Fatalf("states = %+v", st)
	}
}

// TestProbeEjectsAndReadmits drives health purely from the probe loop:
// a failing probe ejects at the threshold, a succeeding one re-admits
// and records the instance identity.
func TestProbeEjectsAndReadmits(t *testing.T) {
	var mu sync.Mutex
	healthy := true
	c, err := New(Options{
		Backends:      []string{"u1"},
		FailThreshold: 2,
		Probe: func(ctx context.Context, url string) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if !healthy {
				return "", errors.New("probe refused")
			}
			return "inst-7", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c.ProbeNow(ctx)
	if st := c.States()[0]; !st.Healthy || st.Instance != "inst-7" || st.LastProbe.IsZero() {
		t.Fatalf("after healthy probe: %+v", st)
	}

	mu.Lock()
	healthy = false
	mu.Unlock()
	c.ProbeNow(ctx)
	if st := c.States()[0]; !st.Healthy {
		t.Fatalf("ejected after one failure (threshold 2): %+v", st)
	}
	c.ProbeNow(ctx)
	if st := c.States()[0]; st.Healthy || st.LastError == "" {
		t.Fatalf("not ejected at threshold: %+v", st)
	}

	mu.Lock()
	healthy = true
	mu.Unlock()
	c.ProbeNow(ctx)
	if st := c.States()[0]; !st.Healthy || st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("not re-admitted: %+v", st)
	}
}

// TestStartStop runs the real probe loop briefly.
func TestStartStop(t *testing.T) {
	c, err := New(Options{
		Backends:      []string{"u1"},
		ProbeInterval: DefaultProbeInterval,
		Probe: func(ctx context.Context, url string) (string, error) {
			return "i", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Start() // repeated Start is a no-op, not a second loop
	c.Stop()
	c.Stop() // and repeated Stop does not panic or hang
	if st := c.States()[0]; !st.Healthy || st.Instance != "i" {
		t.Fatalf("initial sweep missing: %+v", st)
	}
}

// TestStopWithoutStart: Stop on a never-started cluster returns
// instead of waiting for a probe loop that does not exist.
func TestStopWithoutStart(t *testing.T) {
	c := newCluster(t, []string{"u1"}, 1)
	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start blocked")
	}
}

// TestHTTPProbe exercises the default probe against a real hcoc-serve
// handler: it must extract the engine's instance identity, and fail
// against a dead socket.
func TestHTTPProbe(t *testing.T) {
	bucket := httptest.NewServer(s3stub.New("fleet"))
	defer bucket.Close()
	b, err := store.NewS3(store.S3Options{Endpoint: bucket.URL, Bucket: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := engine.New(engine.Options{Store: st})
	srv, err := serve.NewServer(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	instance, err := httpProbe(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if instance != eng.ID() {
		t.Fatalf("probe instance %q, engine ID %q", instance, eng.ID())
	}

	ts.Close()
	if _, err := httpProbe(context.Background(), ts.URL); err == nil {
		t.Fatal("probe succeeded against a closed server")
	}

	// A backend with private state is refused by name.
	private, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(private)
	defer pts.Close()
	if _, err := httpProbe(context.Background(), pts.URL); !errors.Is(err, ErrNotShared) {
		t.Fatalf("probe of a memory-only backend = %v, want ErrNotShared", err)
	}
}

// TestReportUnknownBackend: reports for URLs outside the membership are
// ignored rather than growing state.
func TestReportUnknownBackend(t *testing.T) {
	c := newCluster(t, []string{"u1"}, 1)
	c.ReportFailure("stranger", errors.New("x"))
	c.ReportSuccess("stranger")
	if got := c.States(); len(got) != 1 || !strings.HasPrefix(got[0].URL, "u1") {
		t.Fatalf("states = %+v", got)
	}
}
