package eventlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hcoc"
	"hcoc/internal/store"
)

// Manager owns every event log the server knows about. With a store it
// discovers persisted logs through KindEvent manifest entries, opens a
// log it has not seen from the store on first use (another writer on a
// shared store may have created it), and migrates legacy snapshot-only
// hierarchy objects (hierarchies/<fp>) into single-snapshot logs, so
// pre-event-log deployments warm-start into the versioned world
// unchanged. With a nil store everything is in-memory. Safe for
// concurrent use.
type Manager struct {
	st *store.Store // nil: in-memory only

	mu   sync.Mutex
	logs map[string]*Log
}

// OpenManager loads (or, storeless, creates empty) the log set.
func OpenManager(st *store.Store) (*Manager, error) {
	m := &Manager{st: st, logs: make(map[string]*Log)}
	if st == nil {
		return m, nil
	}
	for id := range st.EventLogs() {
		l, err := openLog(st, id)
		if err != nil {
			return nil, err
		}
		m.logs[id] = l
	}
	// Legacy hierarchies persisted before the event log existed: migrate
	// each into a log whose first chunk is the snapshot. The log id is
	// the snapshot tree's fingerprint — the same id the legacy API
	// handed out — so existing references keep resolving.
	recs, err := st.Hierarchies()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, ok := m.logs[rec.Fingerprint]; ok {
			continue
		}
		l, _, err := m.establish(snapshotEvent(rec.Root, rec.Groups), rec.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("eventlog: migrating legacy hierarchy %s: %w", rec.Fingerprint, err)
		}
		if l.ID() != rec.Fingerprint {
			return nil, fmt.Errorf("eventlog: legacy hierarchy %s rebuilt to fingerprint %s", rec.Fingerprint, l.ID())
		}
		m.logs[l.ID()] = l
	}
	return m, nil
}

// establish creates log id from its snapshot event, or — when another
// writer on the store created it first — opens that one from the
// store. Caller holds mu (or owns m exclusively).
func (m *Manager) establish(ev Event, id string) (l *Log, created bool, err error) {
	l, err = newLog(m.st, ev)
	if errors.Is(err, store.ErrBlobExists) {
		l, err = openLog(m.st, id)
		return l, false, err
	}
	return l, err == nil, err
}

// snapshotEvent converts a root name and group records into a snapshot
// event.
func snapshotEvent(root string, groups []hcoc.Group) Event {
	ev := Event{Type: KindSnapshot, Root: root, Groups: make([]Group, len(groups))}
	for i, g := range groups {
		ev.Groups[i] = Group{Path: g.Path, Size: g.Size}
	}
	return ev
}

// Create establishes a log from a snapshot. Logs are content-addressed
// by their version-1 fingerprint, so re-creating from an identical
// snapshot returns the existing log (created=false) — idempotent, and
// the existing log keeps any deltas already appended.
func (m *Manager) Create(root string, groups []hcoc.Group) (l *Log, created bool, err error) {
	ev := snapshotEvent(root, groups)
	// Build once up front to learn the id without persisting.
	st, err := (&logState{}).apply(ev)
	if err != nil {
		return nil, false, err
	}
	tree, err := st.build()
	if err != nil {
		return nil, false, err
	}
	id := fingerprint(tree)

	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.logs[id]; ok {
		return l, false, nil
	}
	l, created, err = m.establish(ev, id)
	if err != nil {
		return nil, false, err
	}
	m.logs[l.ID()] = l
	return l, created, nil
}

// Get returns a log by id; ok=false means no such log. With a store, a
// log this manager has not seen is opened from the store when its
// first chunk exists there; err reports a store that could not say.
func (m *Manager) Get(id string) (l *Log, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.logs[id]; ok {
		return l, true, nil
	}
	if m.st == nil || !isFingerprint(id) {
		return nil, false, nil
	}
	l, err = openLog(m.st, id)
	if errors.Is(err, errNoLog) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m.logs[id] = l
	return l, true, nil
}

// isFingerprint reports whether id has the shape of a log id (lowercase
// hex), so arbitrary request input never becomes a store key.
func isFingerprint(id string) bool {
	if id == "" {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Len reports how many logs the manager holds.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.logs)
}

// Logs returns every log, sorted by id for stable listings.
func (m *Manager) Logs() []*Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Log, 0, len(m.logs))
	for _, l := range m.logs {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Refresh re-discovers logs and replays chunks appended by other
// writers on a shared backend: new logs are opened, known logs catch
// up to their durable head.
func (m *Manager) Refresh() error {
	if m.st == nil {
		return nil
	}
	known := make([]*Log, 0)
	m.mu.Lock()
	for _, l := range m.logs {
		known = append(known, l)
	}
	m.mu.Unlock()
	for _, l := range known {
		if err := l.Refresh(); err != nil {
			return err
		}
	}
	for id := range m.st.EventLogs() {
		m.mu.Lock()
		_, ok := m.logs[id]
		m.mu.Unlock()
		if ok {
			continue
		}
		l, err := openLog(m.st, id)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if _, ok := m.logs[id]; !ok {
			m.logs[id] = l
		}
		m.mu.Unlock()
	}
	return nil
}
