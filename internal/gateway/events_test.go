package gateway

import (
	"context"
	"errors"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
)

// TestGatewayEventsForward: a delta append through the gateway lands
// once, on one backend, in the shared store, so every backend reports
// the same head; the version listing and version-pinned releases route
// the same way; a stale If-Match is a terminal 409 surfaced as the
// typed conflict.
func TestGatewayEventsForward(t *testing.T) {
	bucket := newBucket(t)
	backends := []*backendFixture{
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
		newBackend(t, bucket, engine.Options{}),
	}
	_, c, _ := newGateway(t, 3, backends...)
	ctx := context.Background()

	h, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatalf("upload: %v", err)
	}

	res, err := c.AppendEvents(ctx, h.ID, []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"OR"}, Size: 2}}, nil, nil),
	}, h.Fingerprint)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if res.Applied != 1 || res.Head.Version != 2 {
		t.Fatalf("append result = %+v", res)
	}

	// Every backend reads the one log from the shared store and reports
	// the same head.
	for _, b := range backends {
		vs, err := b.c.HierarchyVersions(ctx, h.ID)
		if err != nil {
			t.Fatalf("versions on %s: %v", b.ts.URL, err)
		}
		if len(vs) != 2 || vs[1].Fingerprint != res.Head.Fingerprint {
			t.Fatalf("backend %s versions = %+v, want head %q", b.ts.URL, vs, res.Head.Fingerprint)
		}
	}

	// The gateway's own version listing agrees.
	vs, err := c.HierarchyVersions(ctx, h.ID)
	if err != nil {
		t.Fatalf("versions via gateway: %v", err)
	}
	if len(vs) != 2 || vs[0].Type != "snapshot" || vs[1].Fingerprint != res.Head.Fingerprint {
		t.Fatalf("gateway versions = %+v", vs)
	}

	// A stale If-Match conflicts against the durable head; the gateway
	// passes the typed 409 through.
	_, err = c.AppendEvents(ctx, h.ID, []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"NV"}, Size: 1}}, nil, nil),
	}, h.Fingerprint)
	var conflict *client.VersionConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("stale append via gateway = %v, want *VersionConflictError", err)
	}
	if conflict.HeadVersion != 2 || conflict.HeadFingerprint != res.Head.Fingerprint {
		t.Fatalf("conflict = %+v", conflict)
	}

	// Version-pinned release through the gateway: the pinned artifact is
	// version 1's, the head release is version 2's.
	pinned, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Version: 1, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatalf("pinned release: %v", err)
	}
	if pinned.Version != 1 || pinned.Fingerprint != h.Fingerprint {
		t.Fatalf("pinned release = %+v", pinned)
	}
	head, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatalf("head release: %v", err)
	}
	if head.Version != 2 || head.Release == pinned.Release {
		t.Fatalf("head release = %+v, want version 2 under a new key", head)
	}

	// Error edges: empty batches and unknown logs come back typed.
	if _, err := c.AppendEvents(ctx, h.ID, nil, ""); err == nil {
		t.Fatal("empty append via gateway succeeded")
	}
	var ae *client.APIError
	_, err = c.AppendEvents(ctx, "h-missing", []client.Event{
		client.DeltaEvent([]client.EventGroup{{Path: []string{"X"}, Size: 1}}, nil, nil),
	}, "")
	if !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("append to unknown hierarchy via gateway = %v", err)
	}
	if _, err := c.HierarchyVersions(ctx, "h-missing"); err == nil {
		t.Fatal("versions of unknown hierarchy via gateway succeeded")
	}
}
