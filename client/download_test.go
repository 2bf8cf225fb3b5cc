package client_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
)

// TestRawDownload pulls a release artifact's raw bytes through the
// SDK: the sparse bytes decode to the released epsilon, the dense
// rendering is a distinct byte stream, and an unknown format fails.
func TestRawDownload(t *testing.T) {
	ts := newDaemon(t, engine.Options{})
	c := newClient(t, ts.URL)
	ctx := context.Background()

	up, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: up.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := c.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, epsilon, err := hcoc.ReadReleaseSparse(bytes.NewReader(raw)); err != nil || epsilon != 1 {
		t.Fatalf("raw bytes decode to epsilon %v, err %v; want 1", epsilon, err)
	}
	dense, err := c.DownloadReleaseBytes(ctx, rel.Release, "dense")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, dense) {
		t.Fatal("sparse and dense downloads returned identical bytes")
	}
	if _, err := c.DownloadReleaseBytes(ctx, rel.Release, "bogus"); err == nil {
		t.Fatal("bogus format succeeded")
	}
}

// TestBudgetErrorString pins the typed budget-refusal error text the
// SDK surfaces to operators.
func TestBudgetErrorString(t *testing.T) {
	ts := newDaemon(t, engine.Options{MaxEpsilonPerHierarchy: 0.5})
	c := newClient(t, ts.URL)
	ctx := context.Background()
	up, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: up.ID, Epsilon: 1, K: 50, Seed: 7})
	if err == nil {
		t.Fatal("over-budget release succeeded")
	}
	msg := fmt.Sprint(err)
	if msg == "" {
		t.Fatal("budget error has empty string form")
	}
}
