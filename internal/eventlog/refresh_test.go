package eventlog_test

import (
	"testing"

	"hcoc"
	"hcoc/internal/eventlog"
	"hcoc/internal/store"
)

// TestSharedRefresh: two managers over the same durable store — a
// reader Refresh picks up both logs created elsewhere and chunks
// appended to logs it already knows, without reopening the store.
func TestSharedRefresh(t *testing.T) {
	dir := t.TempDir()
	wst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wst.Close()
	rst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()

	writer, err := eventlog.OpenManager(wst)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := eventlog.OpenManager(rst)
	if err != nil {
		t.Fatal(err)
	}
	if reader.Len() != 0 || len(reader.Logs()) != 0 {
		t.Fatalf("fresh reader holds %d logs", reader.Len())
	}

	wl, created, err := writer.Create("root", []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	})
	if err != nil || !created {
		t.Fatalf("create = %v created=%v", err, created)
	}
	if wl.Root() != "root" {
		t.Fatalf("root = %q", wl.Root())
	}

	// The reader's store sees the new manifest entries after its own
	// refresh; the manager then opens the new log.
	if err := rst.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	rl, ok, err := reader.Get(wl.ID())
	if !ok {
		t.Fatalf("reader did not discover log %s", wl.ID())
	}
	if rl.Head() != wl.Head() || rl.Root() != "root" {
		t.Fatalf("reader head = %+v, writer head = %+v", rl.Head(), wl.Head())
	}

	// Chunks appended on the writer reach the known log on refresh.
	v2, err := wl.Append(eventlog.Event{Type: eventlog.KindDelta,
		Add: []eventlog.Group{{Path: []string{"a", "x"}, Size: 7}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := rst.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	if rl.Head() != v2 {
		t.Fatalf("reader head after refresh = %+v, want %+v", rl.Head(), v2)
	}
	if got, ok := rl.Version(2); !ok || got != v2 {
		t.Fatalf("reader Version(2) = %+v ok=%v", got, ok)
	}
	if _, ok := rl.Version(99); ok {
		t.Fatal("Version(99) exists")
	}
	if logs := reader.Logs(); len(logs) != 1 || logs[0].ID() != wl.ID() {
		t.Fatalf("reader listing = %v", logs)
	}

	// The replayed version tree is bit-identical to the writer's.
	rt, _, err := rl.Tree(2)
	if err != nil {
		t.Fatal(err)
	}
	wt, _, err := wl.Tree(2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Root.G() != wt.Root.G() || len(rt.Nodes()) != len(wt.Nodes()) {
		t.Fatalf("replayed tree diverged: %d groups %d nodes vs %d groups %d nodes",
			rt.Root.G(), len(rt.Nodes()), wt.Root.G(), len(wt.Nodes()))
	}
}
