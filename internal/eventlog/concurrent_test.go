package eventlog_test

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"hcoc"
	"hcoc/internal/eventlog"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// sharedBackends opens stores that all read and write one backing
// store: a disk directory, or one bucket of an in-process S3 stub.
// Each call of open returns a fresh Store, as a separate process would
// hold.
func sharedBackends(t *testing.T) map[string]func() *store.Store {
	dir := t.TempDir()
	srv := httptest.NewServer(s3stub.New("fleet"))
	t.Cleanup(srv.Close)
	keep := func(st *store.Store, err error) *store.Store {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	return map[string]func() *store.Store{
		"disk": func() *store.Store { return keep(store.Open(dir)) },
		"s3": func() *store.Store {
			b, err := store.NewS3(store.S3Options{Endpoint: srv.URL, Bucket: "fleet", Prefix: "logs"})
			if err != nil {
				t.Fatal(err)
			}
			return keep(store.OpenBackend(b))
		},
	}
}

// writerLogs opens the same log through nodes separate managers, each
// over its own store on the shared backend.
func writerLogs(t *testing.T, open func() *store.Store, nodes int) []*eventlog.Log {
	t.Helper()
	groups := []hcoc.Group{
		{Path: []string{"a", "x"}, Size: 3},
		{Path: []string{"b", "y"}, Size: 5},
	}
	var logs []*eventlog.Log
	for i := 0; i < nodes; i++ {
		mgr, err := eventlog.OpenManager(open())
		if err != nil {
			t.Fatal(err)
		}
		// Every node uploads the same snapshot: one creates the log,
		// the others find it in the store.
		l, _, err := mgr.Create("root", groups)
		if err != nil {
			t.Fatal(err)
		}
		if len(logs) > 0 && l.ID() != logs[0].ID() {
			t.Fatalf("node %d opened log %s, node 0 %s", i, l.ID(), logs[0].ID())
		}
		logs = append(logs, l)
	}
	return logs
}

// addEvent is a delta adding one group whose size names its writer.
func addEvent(size int64) eventlog.Event {
	return eventlog.Event{Type: eventlog.KindDelta,
		Add: []eventlog.Group{{Path: []string{"a", "x"}, Size: size}}}
}

// TestConcurrentIfMatchOneWinner: writers on several managers over one
// store all append under the same If-Match. Per version exactly one
// append wins; every other gets *ConflictError naming the winner.
func TestConcurrentIfMatchOneWinner(t *testing.T) {
	const nodes, perNode, rounds = 2, 4, 3
	for name, open := range sharedBackends(t) {
		t.Run(name, func(t *testing.T) {
			logs := writerLogs(t, open, nodes)
			head := logs[0].Head()
			for round := 0; round < rounds; round++ {
				var mu sync.Mutex
				var wins []eventlog.Version
				var others []error
				var wg sync.WaitGroup
				for n, l := range logs {
					for w := 0; w < perNode; w++ {
						wg.Add(1)
						go func(l *eventlog.Log, size int64) {
							defer wg.Done()
							v, err := l.Append(addEvent(size), head.Fingerprint)
							mu.Lock()
							defer mu.Unlock()
							if err == nil {
								wins = append(wins, v)
							} else {
								others = append(others, err)
							}
						}(l, int64(100*round+10*n+w+10))
					}
				}
				wg.Wait()
				if len(wins) != 1 {
					t.Fatalf("round %d: %d appends won under one If-Match, want 1: %+v", round, len(wins), wins)
				}
				win := wins[0]
				if win.Seq != head.Seq+1 {
					t.Fatalf("round %d: winner is version %d, want %d", round, win.Seq, head.Seq+1)
				}
				for _, err := range others {
					var conflict *eventlog.ConflictError
					if !errors.As(err, &conflict) {
						t.Fatalf("round %d: loser got %v, want *ConflictError", round, err)
					}
					if conflict.Head.Seq != win.Seq || conflict.Head.Fingerprint != win.Fingerprint {
						t.Fatalf("round %d: conflict names head %+v, winner is %+v", round, conflict.Head, win)
					}
				}
				head = win
			}
			// A fresh replay holds exactly the winners.
			mgr, err := eventlog.OpenManager(open())
			if err != nil {
				t.Fatal(err)
			}
			l, ok, err := mgr.Get(logs[0].ID())
			if !ok {
				t.Fatal("fresh manager cannot open the log")
			}
			if got := l.Head(); got.Seq != head.Seq || got.Fingerprint != head.Fingerprint {
				t.Fatalf("replayed head %+v, want %+v", got, head)
			}
		})
	}
}

// TestConcurrentAppendsAllSurvive: without If-Match, every append any
// writer acknowledged is in a fresh replay, at the version it was
// acknowledged as.
func TestConcurrentAppendsAllSurvive(t *testing.T) {
	const nodes, perNode = 2, 6
	for name, open := range sharedBackends(t) {
		t.Run(name, func(t *testing.T) {
			logs := writerLogs(t, open, nodes)
			var mu sync.Mutex
			acked := map[int64]eventlog.Version{}
			var wg sync.WaitGroup
			for n, l := range logs {
				for w := 0; w < perNode; w++ {
					wg.Add(1)
					go func(l *eventlog.Log, size int64) {
						defer wg.Done()
						v, err := l.Append(addEvent(size), "")
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						defer mu.Unlock()
						if prev, dup := acked[v.Seq]; dup {
							t.Errorf("version %d acknowledged twice: %+v and %+v", v.Seq, prev, v)
						}
						acked[v.Seq] = v
					}(l, int64(10*n+w+10))
				}
			}
			wg.Wait()
			if len(acked) != nodes*perNode {
				t.Fatalf("%d distinct versions acknowledged, want %d", len(acked), nodes*perNode)
			}
			mgr, err := eventlog.OpenManager(open())
			if err != nil {
				t.Fatal(err)
			}
			l, ok, err := mgr.Get(logs[0].ID())
			if !ok {
				t.Fatal("fresh manager cannot open the log")
			}
			vs := l.Versions()
			if len(vs) != 1+nodes*perNode {
				t.Fatalf("replay holds %d versions, want %d", len(vs), 1+nodes*perNode)
			}
			for seq, v := range acked {
				if got := vs[seq-1]; got.Fingerprint != v.Fingerprint {
					t.Errorf("acknowledged version %d lost: replay has %s, acknowledged %s", seq, got.Fingerprint, v.Fingerprint)
				}
			}
			if g := vs[len(vs)-1].Groups; g != int64(2+nodes*perNode) {
				t.Fatalf("replayed head holds %d groups, want %d", g, 2+nodes*perNode)
			}
		})
	}
}

// TestManagerOpensUnknownLogFromStore: a manager that has never seen a
// log opens it from the store on Get, and Refresh catches a known log
// up to chunks another writer appended.
func TestManagerOpensUnknownLogFromStore(t *testing.T) {
	for name, open := range sharedBackends(t) {
		t.Run(name, func(t *testing.T) {
			logs := writerLogs(t, open, 1)
			reader, err := eventlog.OpenManager(open())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := reader.Get("not-a-fingerprint/../x"); ok || err != nil {
				t.Fatal("Get accepted a malformed id")
			}
			if _, ok, err := reader.Get("0123456789abcdef"); ok || err != nil {
				t.Fatal("Get opened a log that does not exist")
			}
			rl, ok, err := reader.Get(logs[0].ID())
			if !ok {
				t.Fatal("reader did not open the log from the store")
			}
			v, err := logs[0].Append(addEvent(42), "")
			if err != nil {
				t.Fatal(err)
			}
			// The reader's in-memory head is stale; an append under the
			// true head catches up and lands on top of it.
			v3, err := rl.Append(addEvent(43), v.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if v3.Seq != v.Seq+1 {
				t.Fatalf("append after catch-up is version %d, want %d", v3.Seq, v.Seq+1)
			}
			if err := logs[0].Refresh(); err != nil {
				t.Fatal(err)
			}
			if got := logs[0].Head(); got.Seq != v3.Seq || got.Fingerprint != v3.Fingerprint {
				t.Fatalf("refreshed head %+v, want %+v", got, v3)
			}
		})
	}
}
