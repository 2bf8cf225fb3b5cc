package eventlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hcoc/internal/engine"
	"hcoc/internal/hierarchy"
	"hcoc/internal/store"
)

// Event kinds.
const (
	// KindSnapshot replaces the whole hierarchy: root name plus the full
	// group list. The first event of every log is a snapshot.
	KindSnapshot = "snapshot"
	// KindDelta mutates the current hierarchy: groups added, groups
	// removed, and group-size drift.
	KindDelta = "delta"
)

// Group is one group record in an event: the leaf path (region names
// below the root, outermost first) and the group's size.
type Group struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

// Drift moves Count groups at a leaf from one size to another — the
// "count drift" shape of a daily refresh, cheaper to express than a
// matched remove+add pair.
type Drift struct {
	Path  []string `json:"path"`
	From  int64    `json:"from"`
	To    int64    `json:"to"`
	Count int64    `json:"count"`
}

// Event is one log entry. Exactly one of the snapshot fields (Root,
// Groups) or the delta fields (Add, Remove, Drift) is used, selected by
// Type.
type Event struct {
	Type   string  `json:"type"`
	Root   string  `json:"root,omitempty"`
	Groups []Group `json:"groups,omitempty"`
	Add    []Group `json:"add,omitempty"`
	Remove []Group `json:"remove,omitempty"`
	Drift  []Drift `json:"drift,omitempty"`
}

// Version identifies one immutable hierarchy version: the 1-based
// event sequence that produced it and the content fingerprint
// (engine.FingerprintTree) of the rebuilt tree.
type Version struct {
	Seq         int64     `json:"seq"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	Type        string    `json:"type"`
	Nodes       int       `json:"nodes"`
	Groups      int64     `json:"groups"`
}

// ConflictError reports an If-Match precondition failure: the caller
// appended against a fingerprint that is no longer the head — a
// concurrent writer won.
type ConflictError struct {
	Log  string
	Head Version
	// Given is the fingerprint the caller expected to be head.
	Given string
}

// Error names the winning head and the stale fingerprint the caller
// presented.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("eventlog: log %s head is version %d (fingerprint %s), not %s",
		e.Log, e.Head.Seq, e.Head.Fingerprint, e.Given)
}

// errNoLog reports a log id with no first chunk in the store.
var errNoLog = errors.New("no first chunk")

// chunk is the on-disk shape of one appended event. The fingerprint is
// recorded at append time so replay can verify the deterministic
// rebuild instead of trusting it.
type chunk struct {
	Seq         int64     `json:"seq"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	Event       Event     `json:"event"`
}

// fingerprint content-addresses a version tree.
func fingerprint(t *hierarchy.Tree) string { return engine.FingerprintTree(t) }

// chunkKey maps a log id and sequence number to its blob key.
func chunkKey(id string, seq int64) string {
	return fmt.Sprintf("events/%s/%012d.json", id, seq)
}

// replacementKey is where a torn chunk's replacement lives. Writers
// never overwrite a chunk, so a torn one stays; the first writer to
// create its replacement (with PutIfAbsent, one winner) decides what
// that sequence number holds, and readers take the replacement over
// the torn chunk.
func replacementKey(id string, seq int64) string {
	return fmt.Sprintf("events/%s/%012d.replacement.json", id, seq)
}

// logState is the materialized fold of an event prefix: the root name
// and, per leaf path (names joined by "/"), the count of groups at each
// size. It is the single source the version tree is rebuilt from, in
// deterministic order, so equal histories always produce equal trees
// and equal fingerprints.
type logState struct {
	root   string
	counts map[string]map[int64]int64
}

func (s *logState) clone() *logState {
	out := &logState{root: s.root, counts: make(map[string]map[int64]int64, len(s.counts))}
	for leaf, sizes := range s.counts {
		m := make(map[int64]int64, len(sizes))
		for sz, n := range sizes {
			m[sz] = n
		}
		out.counts[leaf] = m
	}
	return out
}

func (s *logState) add(path []string, size int64, n int64) error {
	if len(path) == 0 {
		return errors.New("eventlog: group path is empty")
	}
	if size < 0 {
		return fmt.Errorf("eventlog: group size %d is negative", size)
	}
	leaf := strings.Join(path, "/")
	if s.counts[leaf] == nil {
		s.counts[leaf] = make(map[int64]int64)
	}
	s.counts[leaf][size] += n
	return nil
}

func (s *logState) remove(path []string, size int64, n int64) error {
	leaf := strings.Join(path, "/")
	sizes := s.counts[leaf]
	if sizes == nil || sizes[size] < n {
		return fmt.Errorf("eventlog: leaf %q has %d groups of size %d, cannot remove %d",
			leaf, sizes[size], size, n)
	}
	sizes[size] -= n
	if sizes[size] == 0 {
		delete(sizes, size)
	}
	if len(sizes) == 0 {
		delete(s.counts, leaf)
	}
	return nil
}

// apply folds one event into a copy of the state; the receiver is not
// mutated, so a failed apply leaves the log untouched.
func (s *logState) apply(ev Event) (*logState, error) {
	switch ev.Type {
	case KindSnapshot:
		if ev.Root == "" {
			return nil, errors.New("eventlog: snapshot event needs a root name")
		}
		if len(ev.Groups) == 0 {
			return nil, errors.New("eventlog: snapshot event needs at least one group")
		}
		next := &logState{root: ev.Root, counts: make(map[string]map[int64]int64)}
		for _, g := range ev.Groups {
			if err := next.add(g.Path, g.Size, 1); err != nil {
				return nil, err
			}
		}
		return next, nil
	case KindDelta:
		if len(ev.Add)+len(ev.Remove)+len(ev.Drift) == 0 {
			return nil, errors.New("eventlog: delta event is empty")
		}
		next := s.clone()
		for _, g := range ev.Remove {
			if err := next.remove(g.Path, g.Size, 1); err != nil {
				return nil, err
			}
		}
		for _, d := range ev.Drift {
			if d.Count <= 0 {
				return nil, fmt.Errorf("eventlog: drift count must be positive, got %d", d.Count)
			}
			if d.From == d.To {
				return nil, fmt.Errorf("eventlog: drift from and to are both %d", d.From)
			}
			if err := next.remove(d.Path, d.From, d.Count); err != nil {
				return nil, err
			}
			if err := next.add(d.Path, d.To, d.Count); err != nil {
				return nil, err
			}
		}
		for _, g := range ev.Add {
			if err := next.add(g.Path, g.Size, 1); err != nil {
				return nil, err
			}
		}
		if len(next.counts) == 0 {
			return nil, errors.New("eventlog: delta would leave the hierarchy empty")
		}
		return next, nil
	default:
		return nil, fmt.Errorf("eventlog: unknown event type %q", ev.Type)
	}
}

// groups materializes the state back into group records, in sorted
// (leaf path, size) order so BuildTree sees a canonical input.
func (s *logState) groups() []hierarchy.Group {
	leaves := make([]string, 0, len(s.counts))
	for leaf := range s.counts {
		leaves = append(leaves, leaf)
	}
	sort.Strings(leaves)
	var out []hierarchy.Group
	for _, leaf := range leaves {
		path := strings.Split(leaf, "/")
		sizes := make([]int64, 0, len(s.counts[leaf]))
		for sz := range s.counts[leaf] {
			sizes = append(sizes, sz)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, sz := range sizes {
			for n := s.counts[leaf][sz]; n > 0; n-- {
				out = append(out, hierarchy.Group{Path: path, Size: sz})
			}
		}
	}
	return out
}

// build rebuilds the version tree from the state.
func (s *logState) build() (*hierarchy.Tree, error) {
	return hierarchy.BuildTree(s.root, s.groups())
}

// totalGroups counts the groups the state holds.
func (s *logState) totalGroups() int64 {
	var n int64
	for _, sizes := range s.counts {
		for _, c := range sizes {
			n += c
		}
	}
	return n
}

// touched returns the node paths an event changes: for a delta, every
// touched leaf plus all its ancestors up to and including the root —
// exactly the changed-set contract of hcoc.ReleaseSparseFrom. For a
// snapshot it returns nil, meaning "everything".
func (ev Event) touched(root string) map[string]bool {
	if ev.Type != KindDelta {
		return nil
	}
	out := map[string]bool{root: true}
	mark := func(path []string) {
		p := root
		for _, name := range path {
			p += "/" + name
			out[p] = true
		}
	}
	for _, g := range ev.Add {
		mark(g.Path)
	}
	for _, g := range ev.Remove {
		mark(g.Path)
	}
	for _, d := range ev.Drift {
		mark(d.Path)
	}
	return out
}

// Log is one hierarchy's event history. Its id is the fingerprint of
// the version-1 snapshot tree — the same content address the legacy
// upload API handed out — so snapshot re-uploads stay idempotent and
// existing hierarchy ids keep resolving. Safe for concurrent use.
type Log struct {
	id string
	st *store.Store // nil: in-memory only, nothing persists

	mu       sync.Mutex
	state    *logState
	events   []Event
	versions []Version
	head     *hierarchy.Tree
}

// ID returns the log's stable identifier.
func (l *Log) ID() string { return l.id }

// Root returns the current root name.
func (l *Log) Root() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.root
}

// Head returns the latest version.
func (l *Log) Head() Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.versions[len(l.versions)-1]
}

// HeadTree returns the latest version's tree. The tree is immutable —
// callers must not mutate it.
func (l *Log) HeadTree() *hierarchy.Tree {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Versions lists every version, oldest first.
func (l *Log) Versions() []Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Version, len(l.versions))
	copy(out, l.versions)
	return out
}

// Version returns one version's metadata; seq 0 means head.
func (l *Log) Version(seq int64) (Version, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 {
		return l.versions[len(l.versions)-1], true
	}
	if seq < 1 || seq > int64(len(l.versions)) {
		return Version{}, false
	}
	return l.versions[seq-1], true
}

// Tree rebuilds the tree of a historical version by replaying the
// event prefix; seq 0 means head (returned without replay). The rebuild
// is verified against the fingerprint recorded when the version was
// created.
func (l *Log) Tree(seq int64) (*hierarchy.Tree, Version, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq == int64(len(l.versions)) {
		return l.head, l.versions[len(l.versions)-1], nil
	}
	if seq < 1 || seq > int64(len(l.versions)) {
		return nil, Version{}, fmt.Errorf("eventlog: log %s has no version %d (head is %d)",
			l.id, seq, len(l.versions))
	}
	st := &logState{}
	for i := int64(0); i < seq; i++ {
		next, err := st.apply(l.events[i])
		if err != nil {
			return nil, Version{}, fmt.Errorf("eventlog: replaying %s event %d: %w", l.id, i+1, err)
		}
		st = next
	}
	tree, err := st.build()
	if err != nil {
		return nil, Version{}, fmt.Errorf("eventlog: rebuilding %s version %d: %w", l.id, seq, err)
	}
	v := l.versions[seq-1]
	if fp := engine.FingerprintTree(tree); fp != v.Fingerprint {
		return nil, Version{}, fmt.Errorf("eventlog: log %s version %d rebuilt to fingerprint %s, recorded %s",
			l.id, seq, fp, v.Fingerprint)
	}
	return tree, v, nil
}

// ChangedSince returns the set of node paths that differ between two
// versions (from < to; the changed-set contract of
// hcoc.ReleaseSparseFrom), or ok=false when the span crosses a
// snapshot or a root rename — cases where "everything changed" and
// incremental reuse is pointless.
func (l *Log) ChangedSince(from, to int64) (map[string]bool, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 1 || to > int64(len(l.versions)) || from >= to {
		return nil, false
	}
	root := l.state.root
	out := map[string]bool{}
	for i := from; i < to; i++ {
		t := l.events[i].touched(root)
		if t == nil {
			return nil, false
		}
		for p := range t {
			out[p] = true
		}
	}
	return out, true
}

// Append applies one event on top of the durable head and persists it
// (chunk object first, manifest entry second — a crash in between
// leaves a durable chunk that replay still finds). ifMatch, when
// non-empty, must equal the head fingerprint or the append fails with
// *ConflictError and no state changes.
//
// The chunk is created with PutIfAbsent, so when several writers share
// one store each sequence number has exactly one winner. A writer whose
// in-memory head is stale — it lost the create, or its If-Match names
// a head it has not seen — catches up from the store and checks again:
// a conditional append then conflicts against the true head, and an
// unconditional one re-applies on top of it.
func (l *Log) Append(ev Event, ifMatch string) (Version, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		head := l.versions[len(l.versions)-1]
		if ifMatch != "" && ifMatch != head.Fingerprint {
			advanced, err := l.advance()
			if err != nil {
				return Version{}, err
			}
			if !advanced {
				return Version{}, &ConflictError{Log: l.id, Head: head, Given: ifMatch}
			}
			continue
		}
		next, err := l.state.apply(ev)
		if err != nil {
			return Version{}, err
		}
		tree, err := next.build()
		if err != nil {
			return Version{}, fmt.Errorf("eventlog: log %s: %w", l.id, err)
		}
		v := Version{
			Seq:         head.Seq + 1,
			Fingerprint: engine.FingerprintTree(tree),
			CreatedAt:   time.Now().UTC(),
			Type:        ev.Type,
			Nodes:       len(tree.Nodes()),
			Groups:      next.totalGroups(),
		}
		if l.st != nil {
			err := l.persist(v, ev)
			if errors.Is(err, store.ErrBlobExists) {
				advanced, err := l.advance()
				if err != nil {
					return Version{}, err
				}
				if !advanced {
					return Version{}, fmt.Errorf("eventlog: log %s chunk %d exists but does not replay", l.id, v.Seq)
				}
				// A retried create whose first attempt landed finds its
				// own chunk: same fingerprint, same timestamp.
				if got := l.versions[v.Seq-1]; got.Fingerprint == v.Fingerprint && got.CreatedAt.Equal(v.CreatedAt) {
					return got, nil
				}
				continue
			}
			if err != nil {
				return Version{}, err
			}
		}
		l.state = next
		l.events = append(l.events, ev)
		l.versions = append(l.versions, v)
		l.head = tree
		return v, nil
	}
}

// persist creates the chunk object (atomic, absent-only) and then its
// manifest entry. When the slot holds a torn chunk (one that does not
// decode) it creates the chunk's replacement instead, under the same
// one-winner rule. A lost create wraps store.ErrBlobExists.
func (l *Log) persist(v Version, ev Event) error {
	data, err := json.Marshal(chunk{Seq: v.Seq, Fingerprint: v.Fingerprint, CreatedAt: v.CreatedAt, Event: ev})
	if err != nil {
		return fmt.Errorf("eventlog: encoding event %d: %w", v.Seq, err)
	}
	data = append(data, '\n')
	b := l.st.Blob()
	err = b.PutIfAbsent(chunkKey(l.id, v.Seq), data)
	if errors.Is(err, store.ErrBlobExists) {
		if _, gerr := getChunk(b, l.id, v.Seq); errors.Is(gerr, errTornChunk) {
			err = b.PutIfAbsent(replacementKey(l.id, v.Seq), data)
		}
	}
	if err != nil {
		return fmt.Errorf("eventlog: writing event chunk %d: %w", v.Seq, err)
	}
	if err := l.st.AppendEvent(store.Meta{Hierarchy: l.id, Seq: v.Seq}); err != nil {
		return fmt.Errorf("eventlog: indexing event chunk %d: %w", v.Seq, err)
	}
	return nil
}

// advance catches up from the store and reports whether the head
// moved. Caller holds mu.
func (l *Log) advance() (bool, error) {
	before := len(l.versions)
	if err := l.catchUp(); err != nil {
		return false, err
	}
	return len(l.versions) > before, nil
}

// catchUp replays chunks past the current head — written by another
// process on a shared backend — into the in-memory log. Caller holds mu.
func (l *Log) catchUp() error {
	if l.st == nil {
		return nil
	}
	for {
		seq := int64(len(l.versions)) + 1
		c, ok, err := readChunk(l.st.Blob(), l.id, seq)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		next, err := l.state.apply(c.Event)
		if err != nil {
			return fmt.Errorf("eventlog: replaying %s event %d: %w", l.id, seq, err)
		}
		tree, err := next.build()
		if err != nil {
			return fmt.Errorf("eventlog: replaying %s event %d: %w", l.id, seq, err)
		}
		fp := engine.FingerprintTree(tree)
		if fp != c.Fingerprint {
			return fmt.Errorf("eventlog: log %s event %d replayed to fingerprint %s, chunk says %s",
				l.id, seq, fp, c.Fingerprint)
		}
		l.state = next
		l.events = append(l.events, c.Event)
		l.versions = append(l.versions, Version{
			Seq: seq, Fingerprint: fp, CreatedAt: c.CreatedAt, Type: c.Event.Type,
			Nodes: len(tree.Nodes()), Groups: next.totalGroups(),
		})
		l.head = tree
	}
}

// Refresh catches the log up to its durable head: chunks appended by
// other writers sharing the store are replayed into memory.
func (l *Log) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.catchUp()
}

// readChunk loads one chunk. ok=false means the chunk is absent or
// torn — the replay stop condition — unless a later chunk exists, which
// is real mid-log corruption and an error.
func readChunk(b store.BlobStore, id string, seq int64) (chunk, bool, error) {
	c, err := getChunk(b, id, seq)
	if errors.Is(err, store.ErrNoBlob) || errors.Is(err, errTornChunk) {
		if _, serr := b.Stat(chunkKey(id, seq+1)); serr != nil {
			return chunk{}, false, nil // the log ends here
		}
		if errors.Is(err, store.ErrNoBlob) {
			// Writers create chunk N+1 only once chunk N exists, so
			// another writer created this one since the first read.
			c, err = getChunk(b, id, seq)
		}
		if err != nil {
			return chunk{}, false, fmt.Errorf("eventlog: log %s chunk %d is missing or torn but chunk %d exists: %w", id, seq, seq+1, err)
		}
	}
	if err != nil {
		return chunk{}, false, err
	}
	return c, true, nil
}

// errTornChunk reports a chunk object that does not decode.
var errTornChunk = errors.New("torn chunk")

// getChunk reads and decodes one chunk: store.ErrNoBlob when it is
// absent, errTornChunk when it does not decode and has no replacement
// that does.
func getChunk(b store.BlobStore, id string, seq int64) (chunk, error) {
	c, err := decodeChunk(b, chunkKey(id, seq), seq)
	if errors.Is(err, errTornChunk) {
		if r, rerr := decodeChunk(b, replacementKey(id, seq), seq); rerr == nil {
			return r, nil
		} else if !errors.Is(rerr, store.ErrNoBlob) && !errors.Is(rerr, errTornChunk) {
			return chunk{}, rerr
		}
	}
	return c, err
}

// decodeChunk reads and decodes one chunk object at key.
func decodeChunk(b store.BlobStore, key string, seq int64) (chunk, error) {
	f, _, err := b.Get(key)
	if errors.Is(err, store.ErrNoBlob) {
		return chunk{}, err
	}
	if err != nil {
		return chunk{}, fmt.Errorf("eventlog: reading %s: %w", key, err)
	}
	defer f.Close()
	var c chunk
	if err := json.NewDecoder(f).Decode(&c); err != nil || c.Seq != seq || c.Fingerprint == "" {
		return chunk{}, errTornChunk
	}
	return c, nil
}

// newLog builds a fresh log from a snapshot event, persisting chunk 1
// when a store is attached. When chunk 1 already exists (the log was
// created by another writer on the store) the error wraps
// store.ErrBlobExists.
func newLog(st *store.Store, ev Event) (*Log, error) {
	base := &logState{}
	next, err := base.apply(ev)
	if err != nil {
		return nil, err
	}
	tree, err := next.build()
	if err != nil {
		return nil, err
	}
	v := Version{
		Seq:         1,
		Fingerprint: engine.FingerprintTree(tree),
		CreatedAt:   time.Now().UTC(),
		Type:        KindSnapshot,
		Nodes:       len(tree.Nodes()),
		Groups:      next.totalGroups(),
	}
	l := &Log{id: v.Fingerprint, st: st}
	if st != nil {
		if err := l.persist(v, ev); err != nil {
			return nil, err
		}
	}
	l.state = next
	l.events = []Event{ev}
	l.versions = []Version{v}
	l.head = tree
	return l, nil
}

// openLog replays a persisted log from chunk 1.
func openLog(st *store.Store, id string) (*Log, error) {
	l := &Log{id: id, st: st, state: &logState{}}
	c, ok, err := readChunk(st.Blob(), id, 1)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("eventlog: log %s: %w", id, errNoLog)
	}
	if c.Event.Type != KindSnapshot {
		return nil, fmt.Errorf("eventlog: log %s starts with a %q event, want snapshot", id, c.Event.Type)
	}
	next, err := l.state.apply(c.Event)
	if err != nil {
		return nil, fmt.Errorf("eventlog: replaying %s event 1: %w", id, err)
	}
	tree, err := next.build()
	if err != nil {
		return nil, fmt.Errorf("eventlog: replaying %s event 1: %w", id, err)
	}
	fp := engine.FingerprintTree(tree)
	if fp != c.Fingerprint || fp != id {
		return nil, fmt.Errorf("eventlog: log %s first chunk rebuilt to fingerprint %s (chunk says %s)",
			id, fp, c.Fingerprint)
	}
	l.state = next
	l.events = []Event{c.Event}
	l.versions = []Version{{
		Seq: 1, Fingerprint: fp, CreatedAt: c.CreatedAt, Type: KindSnapshot,
		Nodes: len(tree.Nodes()), Groups: next.totalGroups(),
	}}
	l.head = tree
	if err := l.catchUp(); err != nil {
		return nil, err
	}
	return l, nil
}
