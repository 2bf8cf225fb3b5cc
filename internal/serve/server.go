package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hcoc"
	"hcoc/internal/engine"
	"hcoc/internal/estimator"
	"hcoc/internal/eventlog"
	"hcoc/internal/privacy"
	"hcoc/internal/store"
)

// maxBodyBytes bounds request bodies; a group record is tens of bytes,
// so this admits tens of millions of groups.
const maxBodyBytes = 1 << 30

// maxHierarchies bounds the uploaded-tree store so a client cycling
// through distinct uploads cannot grow the daemon without limit (the
// release cache is separately LRU-bounded).
const maxHierarchies = 128

// Server is the HTTP front end over the release engine. Hierarchies are
// event logs: established by a snapshot, evolved by appended deltas,
// addressed by the content fingerprint of their first snapshot. Every
// applied event is a new immutable version, and releases, queries, and
// downloads can pin one. With a durable store the logs survive
// restarts: events are replayed from disk on boot.
type Server struct {
	eng     *engine.Engine
	st      *store.Store // nil = memory only
	jobs    *engine.Jobs
	mux     *http.ServeMux
	maxBody int64

	logs     *eventlog.Manager
	maxTrees int

	// Continual-observation budget: one accountant per event log,
	// bounding the cumulative epsilon spent across every version of the
	// hierarchy — the privacy cost of watching it evolve. Zero limit
	// means unenforced.
	contLimit float64
	contMu    sync.Mutex
	continual map[string]*privacy.Accountant
}

// ServerOption configures optional server behavior.
type ServerOption func(*Server)

// WithContinualBudget bounds the cumulative epsilon spent across all
// versions of each hierarchy (the continual-observation budget of an
// evolving dataset), on top of the engine's per-version bound. Zero or
// negative disables enforcement.
func WithContinualBudget(epsilon float64) ServerOption {
	return func(s *Server) {
		if epsilon > 0 {
			s.contLimit = epsilon
		}
	}
}

// NewServer wires the routes over an engine and an optional durable
// store. With a store, persisted event logs are replayed immediately —
// and pre-event-log hierarchy snapshots migrated into single-snapshot
// logs — so releases and queries work across restarts without
// re-uploading.
func NewServer(eng *engine.Engine, st *store.Store, opts ...ServerOption) (*Server, error) {
	s := &Server{
		eng:       eng,
		st:        st,
		jobs:      engine.NewJobs(0),
		mux:       http.NewServeMux(),
		maxBody:   maxBodyBytes,
		maxTrees:  maxHierarchies,
		continual: make(map[string]*privacy.Accountant),
	}
	for _, o := range opts {
		o(s)
	}
	for _, rt := range s.routeTable() {
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	logs, err := eventlog.OpenManager(st)
	if err != nil {
		return nil, err
	}
	s.logs = logs
	return s, nil
}

// RefreshShared re-reads a shared store's manifest, so artifacts and
// budget spend written by other nodes become visible, then opens the
// event logs the refresh brought in and catches known logs up to their
// durable heads. A no-op without a shared store. Listings call it
// before answering; cmd/hcoc-serve also wires it to SIGHUP.
func (s *Server) RefreshShared() error {
	if !s.shared() {
		return nil
	}
	if err := s.st.Refresh(); err != nil {
		return fmt.Errorf("store refresh: %w", err)
	}
	if err := s.logs.Refresh(); err != nil {
		return fmt.Errorf("event-log refresh: %w", err)
	}
	return nil
}

// shared reports whether other nodes may write this server's store.
func (s *Server) shared() bool { return s.st != nil && s.st.Shared() }

// hierarchyLog resolves a hierarchy id to its event log, writing the
// 404 (unknown) or 500 (the store could not say) itself; ok reports
// whether the handler should proceed.
func (s *Server) hierarchyLog(w http.ResponseWriter, id string) (*eventlog.Log, bool) {
	l, ok, err := s.logs.Get(hierarchyID(id))
	switch {
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "reading hierarchy %q from the store: %v", id, err)
	case !ok:
		WriteError(w, http.StatusNotFound, "unknown hierarchy %q; POST /v1/hierarchy first", id)
	}
	return l, ok && err == nil
}

// catchUp brings a log to its durable head before a head-resolving
// read when other nodes share the store and may have appended since,
// so any node serves what any other wrote. It writes the 500 itself;
// ok reports whether the handler should proceed.
func (s *Server) catchUp(w http.ResponseWriter, l *eventlog.Log) bool {
	if !s.shared() {
		return true
	}
	if err := l.Refresh(); err != nil {
		WriteError(w, http.StatusInternalServerError, "reading hierarchy h-%s from the shared store: %v", l.ID(), err)
		return false
	}
	return true
}

// Route is one registered endpoint: an HTTP method and a net/http mux
// pattern (path parameters spelled {id}, {node...}).
type Route struct {
	Method  string
	Pattern string
}

// routeEntry pairs a Route with its handler; routeTable is the single
// source of truth for registration and for Routes.
type routeEntry struct {
	Route
	handler http.HandlerFunc
}

func (s *Server) routeTable() []routeEntry {
	return []routeEntry{
		{Route{"POST", "/v1/hierarchy"}, s.handleHierarchy},
		{Route{"GET", "/v1/hierarchy"}, s.handleListHierarchies},
		{Route{"POST", "/v1/hierarchy/{id}/events"}, s.handleAppendEvents},
		{Route{"GET", "/v1/hierarchy/{id}/versions"}, s.handleVersions},
		{Route{"POST", "/v1/release"}, s.handleRelease},
		{Route{"GET", "/v1/release"}, s.handleListReleases},
		{Route{"GET", "/v1/release/{id}"}, s.handleGetRelease},
		{Route{"GET", "/v1/jobs/{id}"}, s.handleGetJob},
		{Route{"POST", "/v1/query/batch"}, s.handleBatchQuery},
		{Route{"GET", "/v1/query/{node...}"}, s.handleQuery},
		{Route{"GET", "/v1/budget/{id}"}, s.handleBudget},
		{Route{"GET", "/v1/tenants"}, s.handleTenants},
		{Route{"GET", "/healthz"}, s.handleHealthz},
		{Route{"GET", "/metrics"}, s.handleMetrics},
	}
}

// Routes lists every registered endpoint. The OpenAPI coverage test
// uses it to fail the build when docs/openapi.yaml misses a route.
func (s *Server) Routes() []Route {
	table := s.routeTable()
	out := make([]Route, len(table))
	for i, rt := range table {
		out[i] = rt.Route
	}
	return out
}

// continualFor returns (lazily creating and warm-starting) the
// continual-observation accountant of one event log. On first touch
// the accountant is seeded with the epsilon already spent against every
// version fingerprint of the log — spend recorded by this process or
// replayed from the store manifest — so a restart cannot reset the
// continual budget. On a shared store every call raises it again to
// that figure, which then includes other nodes' charges. Returns nil
// when the bound is unenforced. Caller holds contMu (the Accountant
// itself is not concurrency-safe).
func (s *Server) continualFor(l *eventlog.Log) *privacy.Accountant {
	if s.contLimit <= 0 {
		return nil
	}
	acct, ok := s.continual[l.ID()]
	if ok && !s.shared() {
		return acct
	}
	if !ok {
		var err error
		if acct, err = privacy.NewAccountant(s.contLimit); err != nil {
			return nil
		}
		s.continual[l.ID()] = acct
	}
	var spent float64
	for _, v := range l.Versions() {
		vs, _, _, _ := s.eng.BudgetStatus(v.Fingerprint)
		spent += vs
	}
	// The recorded spend may already exceed a newly lowered limit;
	// clamp so the accountant still refuses new work. It never lowers
	// the account: charges in flight here are not recorded yet.
	if extra := min(spent-acct.Spent(), acct.Remaining()); extra > 1e-12 {
		_ = acct.Spend("recorded", extra)
	}
	return acct
}

// chargeContinual debits a release's epsilon against the log's
// continual budget before the engine runs. ok=false means the bound
// would be exceeded; remaining reports what the log could still afford.
// charged=false means the bound is unenforced (nothing to refund).
func (s *Server) chargeContinual(l *eventlog.Log, epsilon float64) (charged, ok bool, remaining float64) {
	if s.contLimit > 0 && s.shared() {
		// Start from the bucket's current ledger, so the bound holds
		// for the fleet. A failed read leaves the last one in place;
		// the engine's own charge re-reads it and fails closed.
		_ = s.st.Refresh()
	}
	s.contMu.Lock()
	defer s.contMu.Unlock()
	acct := s.continualFor(l)
	if acct == nil {
		return false, true, 0
	}
	if err := acct.Spend("release", epsilon); err != nil {
		return false, false, acct.Remaining()
	}
	return true, true, acct.Remaining()
}

// refundContinual returns a charge for a request that drew no noise —
// a cache/store/peer hit, a dedup onto an in-flight computation (the
// computing request carries the charge), or a failed release.
func (s *Server) refundContinual(l *eventlog.Log, epsilon float64) {
	s.contMu.Lock()
	defer s.contMu.Unlock()
	if acct, ok := s.continual[l.ID()]; ok {
		_ = acct.Refund("release", epsilon)
	}
}

// continualStatus reports a log's continual spend and remaining budget
// without charging anything.
func (s *Server) continualStatus(l *eventlog.Log) (spent, remaining float64, enforced bool) {
	s.contMu.Lock()
	defer s.contMu.Unlock()
	acct := s.continualFor(l)
	if acct == nil {
		for _, v := range l.Versions() {
			vs, _, _, _ := s.eng.BudgetStatus(v.Fingerprint)
			spent += vs
		}
		return spent, 0, false
	}
	return acct.Spent(), acct.Remaining(), true
}

// ServeHTTP implements http.Handler. Request bodies are bounded (and,
// with Content-Encoding: gzip, transparently decompressed under the
// same bound); responses are gzip-compressed when the client accepts
// it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w, r, finish, ok := WrapTransport(w, r, s.maxBody)
	if !ok {
		return
	}
	defer finish()
	s.mux.ServeHTTP(w, r)
}

// WrapTransport applies the HTTP transport conventions shared by every
// hcoc serving tier (this server and hcoc-gateway): the request body is
// bounded at maxBody and, with Content-Encoding: gzip, transparently
// decompressed under the same bound; the response is gzip-compressed
// when the client accepts it. The returned finish func must be deferred
// around the handler (it flushes the compressor); ok reports whether to
// proceed — false means an error response was already written (an
// unsupported Content-Encoding).
//
// Artifact downloads (GET /v1/release/{id}) are always served identity:
// they go through http.ServeContent for zero-copy streaming with exact
// Content-Length, strong ETags, and byte ranges — all of which
// on-the-fly compression would break (a gzip body has no predictable
// length, and a range into compressed bytes is not a range into the
// artifact).
func WrapTransport(w http.ResponseWriter, r *http.Request, maxBody int64) (http.ResponseWriter, *http.Request, func(), bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if ce := r.Header.Get("Content-Encoding"); strings.EqualFold(ce, "gzip") {
		r.Body = &gzipBody{src: r.Body, limit: maxBody}
		r.Header.Del("Content-Encoding")
	} else if ce != "" && !strings.EqualFold(ce, "identity") {
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q; send gzip or identity", ce)
		return nil, nil, nil, false
	}
	finish := func() {}
	if acceptsGzip(r) && !isArtifactDownload(r) {
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(w)
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Add("Vary", "Accept-Encoding")
		w = &gzipResponseWriter{ResponseWriter: w, zw: zw}
		finish = func() {
			_ = zw.Close()
			gzipWriters.Put(zw)
		}
	}
	return w, r, finish, true
}

// isArtifactDownload reports whether the request reads a release
// artifact (GET/HEAD /v1/release/{id} — the trailing slash excludes the
// GET /v1/release listing, which stays compressible).
func isArtifactDownload(r *http.Request) bool {
	return (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
		strings.HasPrefix(r.URL.Path, "/v1/release/")
}

// errorResponse is the JSON shape of every non-2xx response: a human
// message plus a machine-readable code clients can branch on without
// parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// ErrorCode maps an HTTP status to its default machine-readable error
// code. Handlers with something more specific to say (budget,
// overload, version_conflict) use WriteErrorCode or a typed body
// instead. Exported for the gateway tier.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "version_conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInsufficientStorage:
		return "insufficient_storage"
	default:
		return "internal"
	}
}

// WriteJSON writes v as an indented JSON response. Exported for the
// gateway tier, which answers in the same wire shapes as the backend.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the canonical {"error", "code"} body every non-2xx
// response carries, deriving the code from the status. Exported for
// the gateway tier.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteErrorCode(w, status, ErrorCode(status), format, args...)
}

// WriteErrorCode is WriteError with an explicit machine-readable code,
// for handlers whose failure is more specific than the status implies.
func WriteErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// DecodeJSON parses a POST body into v, writing the precise failure
// status itself: 415 for a non-JSON Content-Type, 413 when the body
// overran the MaxBytesReader bound (which would otherwise surface as a
// generic parse error), 400 for malformed JSON. It reports whether the
// handler should proceed. Exported for the gateway tier, so both tiers
// refuse bad bodies with byte-identical semantics.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	// An absent Content-Type is accepted as JSON — the API has exactly
	// one body format — but an explicit wrong one is a client bug worth
	// naming.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && mt != "text/json") {
			WriteError(w, http.StatusUnsupportedMediaType,
				"unsupported Content-Type %q; send application/json", ct)
			return false
		}
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "parsing request: %v", err)
		return false
	}
	return true
}

// groupRecord is the JSON shape of one group in a hierarchy upload.
type groupRecord struct {
	Path []string `json:"path"`
	Size int64    `json:"size"`
}

// hierarchyRequest is the body of POST /v1/hierarchy.
type hierarchyRequest struct {
	Root   string        `json:"root"`
	Groups []groupRecord `json:"groups"`
}

// hierarchyResponse describes a hierarchy (an event log) at its head
// version.
type hierarchyResponse struct {
	ID          string `json:"id"`
	Depth       int    `json:"depth"`
	Nodes       int    `json:"nodes"`
	Groups      int64  `json:"groups"`
	People      int64  `json:"people"`
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// handleHierarchy is the legacy snapshot upload, kept as a deprecated
// alias: the body becomes the log's snapshot event. The log id is the
// snapshot tree's fingerprint — the same content address this endpoint
// always handed out — so re-uploads stay idempotent, and an existing
// log keeps any deltas already appended (the upload does NOT reset it;
// version reports the log's current head).
func (s *Server) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	var req hierarchyRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if req.Root == "" {
		req.Root = "root"
	}
	if len(req.Groups) == 0 {
		WriteError(w, http.StatusBadRequest, "no groups in upload")
		return
	}
	groups := make([]hcoc.Group, len(req.Groups))
	for i, g := range req.Groups {
		if g.Size < 0 {
			WriteError(w, http.StatusBadRequest, "group %d has negative size %d", i, g.Size)
			return
		}
		groups[i] = hcoc.Group{Path: g.Path, Size: g.Size}
	}
	tree, err := hcoc.BuildHierarchy(req.Root, groups)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "building hierarchy: %v", err)
		return
	}
	fp := engine.FingerprintTree(tree)
	if _, ok, err := s.logs.Get(fp); err == nil && !ok && s.logs.Len() >= s.maxTrees {
		WriteError(w, http.StatusInsufficientStorage,
			"hierarchy store is full (%d); re-use an uploaded hierarchy or restart the server", s.maxTrees)
		return
	}
	l, _, err := s.logs.Create(req.Root, groups)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "establishing event log: %v", err)
		return
	}

	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", fmt.Sprintf("</v1/hierarchy/h-%s/events>; rel=\"successor-version\"", l.ID()))
	WriteJSON(w, http.StatusOK, logResponse(l))
}

// logResponse renders a log's head-version summary.
func logResponse(l *eventlog.Log) hierarchyResponse {
	head := l.Head()
	tree := l.HeadTree()
	return hierarchyResponse{
		ID:          "h-" + l.ID(),
		Depth:       tree.Depth(),
		Nodes:       len(tree.Nodes()),
		Groups:      tree.Root.G(),
		People:      tree.Root.Hist.People(),
		Version:     head.Seq,
		Fingerprint: head.Fingerprint,
	}
}

func (s *Server) handleListHierarchies(w http.ResponseWriter, r *http.Request) {
	if err := s.RefreshShared(); err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	logs := s.logs.Logs()
	out := make([]hierarchyResponse, 0, len(logs))
	for _, l := range logs {
		out = append(out, logResponse(l))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	WriteJSON(w, http.StatusOK, out)
}

// driftRecord is the wire shape of one count-drift entry in a delta
// event: count groups at path move from size from to size to.
type driftRecord struct {
	Path  []string `json:"path"`
	From  int64    `json:"from"`
	To    int64    `json:"to"`
	Count int64    `json:"count"`
}

// eventRecord is the wire shape of one hierarchy event. Type selects
// which fields apply: "snapshot" uses root+groups, "delta" uses
// add/remove/drift.
type eventRecord struct {
	Type   string        `json:"type"`
	Root   string        `json:"root,omitempty"`
	Groups []groupRecord `json:"groups,omitempty"`
	Add    []groupRecord `json:"add,omitempty"`
	Remove []groupRecord `json:"remove,omitempty"`
	Drift  []driftRecord `json:"drift,omitempty"`
}

// appendEventsRequest is the body of POST /v1/hierarchy/{id}/events.
type appendEventsRequest struct {
	Events []eventRecord `json:"events"`
}

// versionInfo is the wire shape of one immutable hierarchy version.
type versionInfo struct {
	Version     int64     `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	CreatedAt   time.Time `json:"created_at"`
	Type        string    `json:"type"`
	Nodes       int       `json:"nodes"`
	Groups      int64     `json:"groups"`
}

func toVersionInfo(v eventlog.Version) versionInfo {
	return versionInfo{
		Version:     v.Seq,
		Fingerprint: v.Fingerprint,
		CreatedAt:   v.CreatedAt,
		Type:        v.Type,
		Nodes:       v.Nodes,
		Groups:      v.Groups,
	}
}

// appendEventsResponse reports where the log's head landed after the
// appends.
type appendEventsResponse struct {
	Hierarchy string      `json:"hierarchy"`
	Applied   int         `json:"applied"`
	Head      versionInfo `json:"head"`
}

// conflictResponse is the 409 body of a failed If-Match precondition:
// the head the caller must rebase onto.
type conflictResponse struct {
	Error           string `json:"error"`
	Code            string `json:"code"`
	Hierarchy       string `json:"hierarchy"`
	HeadVersion     int64  `json:"head_version"`
	HeadFingerprint string `json:"head_fingerprint"`
	Given           string `json:"given"`
}

// eventFromRecord lowers a wire event into the log's type.
func eventFromRecord(rec eventRecord) eventlog.Event {
	conv := func(gs []groupRecord) []eventlog.Group {
		if len(gs) == 0 {
			return nil
		}
		out := make([]eventlog.Group, len(gs))
		for i, g := range gs {
			out[i] = eventlog.Group{Path: g.Path, Size: g.Size}
		}
		return out
	}
	ev := eventlog.Event{
		Type:   rec.Type,
		Root:   rec.Root,
		Groups: conv(rec.Groups),
		Add:    conv(rec.Add),
		Remove: conv(rec.Remove),
	}
	for _, d := range rec.Drift {
		ev.Drift = append(ev.Drift, eventlog.Drift{Path: d.Path, From: d.From, To: d.To, Count: d.Count})
	}
	return ev
}

// handleAppendEvents appends delta events to a hierarchy's log. Each
// applied event is a new immutable version; the response names the
// resulting head. An If-Match header (the expected head fingerprint,
// quoted or bare) makes the first append conditional: a stale value is
// a 409 with the current head, and nothing is applied. Events apply in
// order, one at a time — an invalid event fails the request at that
// index, keeping the versions the earlier events already produced.
func (s *Server) handleAppendEvents(w http.ResponseWriter, r *http.Request) {
	l, ok := s.hierarchyLog(w, r.PathValue("id"))
	if !ok {
		return
	}
	var req appendEventsRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		WriteError(w, http.StatusBadRequest, "no events in request")
		return
	}
	// Validate against every append acknowledged before this request:
	// a delta may remove groups another node added.
	if !s.catchUp(w, l) {
		return
	}
	ifMatch := strings.Trim(r.Header.Get("If-Match"), `"`)
	var head eventlog.Version
	for i, rec := range req.Events {
		ev := eventFromRecord(rec)
		match := ""
		if i == 0 {
			match = ifMatch
		}
		v, err := l.Append(ev, match)
		if err != nil {
			var conflict *eventlog.ConflictError
			if errors.As(err, &conflict) {
				WriteJSON(w, http.StatusConflict, conflictResponse{
					Error:           err.Error(),
					Code:            "version_conflict",
					Hierarchy:       "h-" + l.ID(),
					HeadVersion:     conflict.Head.Seq,
					HeadFingerprint: conflict.Head.Fingerprint,
					Given:           conflict.Given,
				})
				return
			}
			WriteError(w, http.StatusBadRequest, "event %d (after %d applied): %v", i, i, err)
			return
		}
		head = v
	}
	WriteJSON(w, http.StatusOK, appendEventsResponse{
		Hierarchy: "h-" + l.ID(),
		Applied:   len(req.Events),
		Head:      toVersionInfo(head),
	})
}

// versionsResponse is the body of GET /v1/hierarchy/{id}/versions.
type versionsResponse struct {
	Hierarchy string        `json:"hierarchy"`
	Root      string        `json:"root"`
	Head      int64         `json:"head"`
	Versions  []versionInfo `json:"versions"`
}

// handleVersions lists a hierarchy's immutable versions, oldest first.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	l, ok := s.hierarchyLog(w, r.PathValue("id"))
	if !ok {
		return
	}
	if !s.catchUp(w, l) {
		return
	}
	vs := l.Versions()
	out := versionsResponse{
		Hierarchy: "h-" + l.ID(),
		Root:      l.Root(),
		Head:      vs[len(vs)-1].Seq,
		Versions:  make([]versionInfo, len(vs)),
	}
	for i, v := range vs {
		out.Versions[i] = toVersionInfo(v)
	}
	WriteJSON(w, http.StatusOK, out)
}

// releaseRequest is the body of POST /v1/release. With "async": true
// the request returns 202 Accepted immediately with a job id; poll
// GET /v1/jobs/{id} for completion. Version pins which immutable
// hierarchy version is released; 0 (or absent) means the current head.
type releaseRequest struct {
	Hierarchy string   `json:"hierarchy"`
	Version   int64    `json:"version"`
	Algorithm string   `json:"algorithm"`
	Epsilon   float64  `json:"epsilon"`
	K         int      `json:"k"`
	Methods   []string `json:"methods"`
	Merge     string   `json:"merge"`
	Seed      int64    `json:"seed"`
	Workers   int      `json:"workers"`
	Async     bool     `json:"async"`
}

// releaseResponse describes how a release request was satisfied.
// Incremental reports that the computation reused retained state from a
// prior version's release, recomputing only the changed subtrees; the
// nodes_estimated/nodes_total pair says how much work that saved. The
// artifact is bit-identical either way.
type releaseResponse struct {
	Release        string  `json:"release"`
	Hierarchy      string  `json:"hierarchy"`
	Version        int64   `json:"version"`
	Fingerprint    string  `json:"fingerprint"`
	Algorithm      string  `json:"algorithm"`
	Epsilon        float64 `json:"epsilon"`
	Nodes          int     `json:"nodes"`
	CacheHit       bool    `json:"cache_hit"`
	StoreHit       bool    `json:"store_hit"`
	PeerHit        bool    `json:"peer_hit"`
	Deduped        bool    `json:"deduped"`
	Incremental    bool    `json:"incremental"`
	NodesEstimated int     `json:"nodes_estimated"`
	NodesTotal     int     `json:"nodes_total"`
	DurationMS     float64 `json:"duration_ms"`
}

// budgetResponse is the 429 body when a release would exceed the
// per-hierarchy epsilon bound; remaining_epsilon tells the client what
// it could still afford. Code distinguishes the per-version bound
// ("budget") from the cross-version continual-observation bound
// ("continual_budget").
type budgetResponse struct {
	Error                  string  `json:"error"`
	Code                   string  `json:"code"`
	Hierarchy              string  `json:"hierarchy"`
	RequestedEpsilon       float64 `json:"requested_epsilon"`
	RemainingEpsilon       float64 `json:"remaining_epsilon"`
	MaxEpsilonPerHierarchy float64 `json:"max_epsilon_per_hierarchy"`
}

// overloadResponse is the 429 body when a tenant's compute queue is at
// its bound; retry_after_seconds mirrors the Retry-After header.
type overloadResponse struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	Hierarchy         string `json:"hierarchy"`
	QueueDepth        int    `json:"queue_depth"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// writeReleaseError maps a failed release to its status: budget
// exhaustion and compute-queue overload are both 429 (the latter with a
// Retry-After header — it is transient backpressure, not a spent
// budget), everything else 500.
func (s *Server) writeReleaseError(w http.ResponseWriter, err error) {
	var be *engine.BudgetError
	if errors.As(err, &be) {
		WriteJSON(w, http.StatusTooManyRequests, budgetResponse{
			Error:                  err.Error(),
			Code:                   "budget",
			Hierarchy:              "h-" + be.Hierarchy,
			RequestedEpsilon:       be.Requested,
			RemainingEpsilon:       be.Remaining,
			MaxEpsilonPerHierarchy: be.Limit,
		})
		return
	}
	var ov *engine.OverloadError
	if errors.As(err, &ov) {
		secs := int((ov.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusTooManyRequests, overloadResponse{
			Error:             err.Error(),
			Code:              "overload",
			Hierarchy:         "h-" + ov.Tenant,
			QueueDepth:        ov.QueueDepth,
			RetryAfterSeconds: secs,
		})
		return
	}
	WriteError(w, http.StatusInternalServerError, "release failed: %v", err)
}

// prevCandidates names the versions whose retained release state could
// seed an incremental recompute of target, nearest first. The walk
// stops at a snapshot boundary (everything changed — no reuse) and
// after a handful of candidates: state for versions further back has
// almost certainly been evicted, and each candidate's changed set costs
// memory to carry.
func prevCandidates(l *eventlog.Log, target int64) []engine.PrevVersion {
	var out []engine.PrevVersion
	for seq := target - 1; seq >= 1 && len(out) < 8; seq-- {
		changed, ok := l.ChangedSince(seq, target)
		if !ok {
			break
		}
		v, ok := l.Version(seq)
		if !ok {
			break
		}
		out = append(out, engine.PrevVersion{TreeFP: v.Fingerprint, Changed: changed})
	}
	return out
}

// freeResult reports that a release request drew no new noise — the
// engine answered from a cache/store/peer tier or coalesced onto an
// in-flight computation that carries the spend.
func freeResult(res engine.Result) bool {
	return res.CacheHit || res.StoreHit || res.PeerHit || res.Deduped
}

func parseMethods(names []string) ([]hcoc.Method, error) {
	var out []hcoc.Method
	for _, name := range names {
		switch name {
		case "hc":
			out = append(out, hcoc.MethodHc)
		case "hg":
			out = append(out, hcoc.MethodHg)
		case "naive":
			out = append(out, hcoc.MethodNaive)
		default:
			return nil, fmt.Errorf("unknown method %q (want hc|hg|naive)", name)
		}
	}
	return out, nil
}

func parseMerge(name string) (hcoc.MergeStrategy, error) {
	switch name {
	case "", "weighted":
		return hcoc.MergeWeighted, nil
	case "average":
		return hcoc.MergeAverage, nil
	default:
		return 0, fmt.Errorf("unknown merge strategy %q (want weighted|average)", name)
	}
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	l, ok := s.hierarchyLog(w, req.Hierarchy)
	if !ok {
		return
	}
	if req.Version < 0 {
		WriteError(w, http.StatusBadRequest, "version must be nonnegative, got %d (0 selects the head)", req.Version)
		return
	}
	if req.Version == 0 && !s.catchUp(w, l) {
		return
	}
	tree, ver, err := l.Tree(req.Version)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	alg, err := engine.ParseAlgorithm(req.Algorithm)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	methods, err := parseMethods(req.Methods)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	merge, err := parseMerge(req.Merge)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !(req.Epsilon > 0) {
		WriteError(w, http.StatusBadRequest, "epsilon must be positive, got %g", req.Epsilon)
		return
	}
	// The release splits epsilon over the levels; refuse a budget so
	// small that a level's noise would round to zero.
	if err := estimator.CheckEpsilon(req.Epsilon / float64(tree.Depth())); err != nil {
		WriteError(w, http.StatusBadRequest, "epsilon %g split over %d levels: %v", req.Epsilon, tree.Depth(), err)
		return
	}
	if req.K < 0 {
		WriteError(w, http.StatusBadRequest, "k must be nonnegative, got %d (0 selects the default)", req.K)
		return
	}

	opts := hcoc.Options{
		Epsilon: req.Epsilon,
		K:       req.K,
		Methods: methods,
		Merge:   merge,
		Seed:    req.Seed,
		Workers: req.Workers,
	}

	// Charge the continual-observation budget up front — before the
	// engine can draw noise — and refund when the request turns out to
	// be free (a hit or a dedup) or fails.
	charged, ok, remaining := s.chargeContinual(l, req.Epsilon)
	if !ok {
		WriteJSON(w, http.StatusTooManyRequests, budgetResponse{
			Error: fmt.Sprintf("hierarchy h-%s has spent its continual-observation budget: requested %g, %g of %g remains",
				l.ID(), req.Epsilon, remaining, s.contLimit),
			Code:                   "continual_budget",
			Hierarchy:              "h-" + l.ID(),
			RequestedEpsilon:       req.Epsilon,
			RemainingEpsilon:       remaining,
			MaxEpsilonPerHierarchy: s.contLimit,
		})
		return
	}

	prev := prevCandidates(l, ver.Seq)

	if req.Async {
		// Detach from the request: the job runs under the background
		// context and outlives this connection. The refund moves into
		// the job body — only it knows how the request was satisfied.
		job, err := s.jobs.Submit(func() (engine.Result, error) {
			res, err := s.eng.ReleaseFrom(context.Background(), tree, ver.Fingerprint, alg, opts, prev)
			if charged && (err != nil || freeResult(res)) {
				s.refundContinual(l, req.Epsilon)
			}
			return res, err
		})
		if err != nil {
			if charged {
				s.refundContinual(l, req.Epsilon)
			}
			WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/j-"+job.ID)
		WriteJSON(w, http.StatusAccepted, jobResponse{
			Job:       "j-" + job.ID,
			Status:    string(job.State),
			Hierarchy: req.Hierarchy,
			CreatedAt: job.Created.UTC().Format(time.RFC3339Nano),
		})
		return
	}

	res, err := s.eng.ReleaseFrom(r.Context(), tree, ver.Fingerprint, alg, opts, prev)
	if charged && (err != nil || freeResult(res)) {
		s.refundContinual(l, req.Epsilon)
	}
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // client went away
		}
		s.writeReleaseError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, releaseResponse{
		Release:        "r-" + res.Key,
		Hierarchy:      "h-" + l.ID(),
		Version:        ver.Seq,
		Fingerprint:    ver.Fingerprint,
		Algorithm:      alg.String(),
		Epsilon:        req.Epsilon,
		Nodes:          len(res.Release),
		CacheHit:       res.CacheHit,
		StoreHit:       res.StoreHit,
		PeerHit:        res.PeerHit,
		Deduped:        res.Deduped,
		Incremental:    res.Incremental,
		NodesEstimated: res.Stats.NodesEstimated,
		NodesTotal:     res.Stats.NodesTotal,
		DurationMS:     float64(res.Duration.Microseconds()) / 1000,
	})
}

// jobResponse is the JSON shape of an async release job.
type jobResponse struct {
	Job        string  `json:"job"`
	Status     string  `json:"status"`
	Hierarchy  string  `json:"hierarchy,omitempty"`
	Release    string  `json:"release,omitempty"`
	Error      string  `json:"error,omitempty"`
	CacheHit   bool    `json:"cache_hit"`
	StoreHit   bool    `json:"store_hit"`
	PeerHit    bool    `json:"peer_hit"`
	Deduped    bool    `json:"deduped"`
	DurationMS float64 `json:"duration_ms"`
	CreatedAt  string  `json:"created_at,omitempty"`
	StartedAt  string  `json:"started_at,omitempty"`
	FinishedAt string  `json:"finished_at,omitempty"`
}

// jobID strips the "j-" prefix job ids are served with.
func jobID(id string) string {
	if len(id) > 2 && id[:2] == "j-" {
		return id[2:]
	}
	return id
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(jobID(r.PathValue("id")))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job; it may have been evicted after completion")
		return
	}
	resp := jobResponse{
		Job:        "j-" + j.ID,
		Status:     string(j.State),
		Error:      j.Err,
		CacheHit:   j.CacheHit,
		StoreHit:   j.StoreHit,
		PeerHit:    j.PeerHit,
		Deduped:    j.Deduped,
		DurationMS: float64(j.Duration.Microseconds()) / 1000,
		CreatedAt:  j.Created.UTC().Format(time.RFC3339Nano),
	}
	if j.Key != "" {
		resp.Release = "r-" + j.Key
	}
	if !j.Started.IsZero() {
		resp.StartedAt = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		resp.FinishedAt = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// releaseListEntry is one durable artifact in GET /v1/release.
type releaseListEntry struct {
	Release    string    `json:"release"`
	Hierarchy  string    `json:"hierarchy"`
	Algorithm  string    `json:"algorithm"`
	Epsilon    float64   `json:"epsilon"`
	CostBytes  int64     `json:"cost_bytes"`
	DurationMS float64   `json:"duration_ms"`
	CreatedAt  time.Time `json:"created_at"`
}

// handleListReleases lists the durable artifacts: what survives a
// restart. Without a data dir the list is empty — in-memory cache
// entries are intentionally excluded, they are an eviction away from
// gone. ?hierarchy= narrows the list to one event log (artifacts of
// every version); adding ?version= narrows to one pinned version.
func (s *Server) handleListReleases(w http.ResponseWriter, r *http.Request) {
	if err := s.RefreshShared(); err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	q := r.URL.Query()
	var filter map[string]bool // version fingerprints; nil = unfiltered
	if hid := q.Get("hierarchy"); hid != "" {
		l, ok := s.hierarchyLog(w, hid)
		if !ok {
			return
		}
		filter = make(map[string]bool)
		if raw := q.Get("version"); raw != "" {
			seq, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || seq < 0 {
				WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", raw)
				return
			}
			v, ok := l.Version(seq)
			if !ok {
				WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
				return
			}
			filter[v.Fingerprint] = true
		} else {
			for _, v := range l.Versions() {
				filter[v.Fingerprint] = true
			}
		}
	} else if q.Get("version") != "" {
		WriteError(w, http.StatusBadRequest, "version filter requires a hierarchy filter")
		return
	}
	out := []releaseListEntry{}
	if s.st != nil {
		for _, m := range s.st.List() {
			if filter != nil && !filter[m.Hierarchy] {
				continue
			}
			out = append(out, releaseListEntry{
				Release:    "r-" + m.Key,
				Hierarchy:  "h-" + m.Hierarchy,
				Algorithm:  m.Algorithm,
				Epsilon:    m.Epsilon,
				CostBytes:  m.CostBytes,
				DurationMS: m.DurationMS,
				CreatedAt:  m.CreatedAt,
			})
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// releaseID strips the "r-" prefix release keys are served with.
func releaseID(id string) string {
	if len(id) > 2 && id[:2] == "r-" {
		return id[2:]
	}
	return id
}

// ServeArtifact writes a release artifact body with the full
// conditional-download contract: exact Content-Length, Accept-Ranges
// with single- and malformed-Range handling (206/416), If-None-Match
// against the strong ETag (304), and If-Modified-Since when modTime is
// known. Exported for the gateway tier, which serves artifacts from a
// shared store with identical semantics.
func ServeArtifact(w http.ResponseWriter, r *http.Request, etag string, modTime time.Time, content io.ReadSeeker) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	// The empty name disables ServeContent's extension-based type
	// sniffing; Content-Type above is authoritative.
	http.ServeContent(w, r, "", modTime, content)
}

// releaseETag is the strong validator of an artifact download. Release
// keys are content addresses — hierarchy fingerprint, algorithm and
// options — and artifacts are immutable once stored, so the key itself
// validates; the dense rendering is a different byte stream and gets a
// distinct tag.
func releaseETag(key, format string) string {
	if format == "dense" {
		return `"` + key + `-dense"`
	}
	return `"` + key + `"`
}

func (s *Server) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	key := releaseID(r.PathValue("id"))
	format := r.URL.Query().Get("format")
	switch format {
	case "", "sparse", "dense":
	default:
		WriteError(w, http.StatusBadRequest, "unknown artifact format %q (want sparse|dense)", format)
		return
	}

	// Zero-copy fast path: the sparse artifact is stored verbatim, so a
	// durable hit streams the backend's ReadSeeker straight into
	// ServeContent — no decode, no re-encode, no buffering of the body.
	if format != "dense" && s.st != nil {
		if f, _, m, err := s.st.OpenRelease(key); err == nil {
			defer f.Close()
			ServeArtifact(w, r, releaseETag(key, format), m.CreatedAt, f)
			return
		}
	}

	// Buffered fallback: cache-only releases (no durable store) and the
	// dense rendering, which only exists on demand. Sparse reads through
	// both tiers: the LRU first, then the durable store (admitting a hit
	// back into the LRU). Serialize before writing so a failure is a
	// clean 500, never a 200 with a truncated artifact; serving the
	// buffer through ServeArtifact keeps ETag/Range semantics identical
	// to the zero-copy path.
	rel, epsilon, err := s.eng.Sparse(key)
	if err != nil {
		WriteError(w, http.StatusNotFound, "release not cached or stored; POST /v1/release to (re)compute it")
		return
	}
	var buf bytes.Buffer
	if format == "dense" {
		err = hcoc.WriteRelease(&buf, rel.Dense(), epsilon)
	} else {
		err = hcoc.WriteReleaseSparse(&buf, rel, epsilon)
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "writing artifact: %v", err)
		return
	}
	ServeArtifact(w, r, releaseETag(key, format), time.Time{}, bytes.NewReader(buf.Bytes()))
}

// queryResponse is the JSON shape of a node query.
type queryResponse struct {
	Node       string           `json:"node"`
	Groups     int64            `json:"groups"`
	People     int64            `json:"people"`
	Mean       float64          `json:"mean"`
	Median     int64            `json:"median"`
	Gini       float64          `json:"gini"`
	Quantiles  []quantileValue  `json:"quantiles,omitempty"`
	KthLargest []orderStatValue `json:"kth_largest,omitempty"`
	TopCoded   hcoc.Histogram   `json:"topcoded,omitempty"`
}

type quantileValue struct {
	Q    float64 `json:"q"`
	Size int64   `json:"size"`
}

type orderStatValue struct {
	K    int64 `json:"k"`
	Size int64 `json:"size"`
}

// ParseQueryParams parses the q/k/topcode statistics selectors of a
// node query, writing the 400 itself on bad input; ok reports whether
// the handler should proceed. Exported so the gateway tier parses (and
// refuses) exactly what the backend does.
func ParseQueryParams(w http.ResponseWriter, q url.Values) (quantiles []float64, kth []int64, topCode int, ok bool) {
	for _, raw := range q["q"] {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad quantile %q", raw)
			return nil, nil, 0, false
		}
		quantiles = append(quantiles, v)
	}
	for _, raw := range q["k"] {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad rank %q", raw)
			return nil, nil, 0, false
		}
		kth = append(kth, v)
	}
	if raw := q.Get("topcode"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			WriteError(w, http.StatusBadRequest, "bad topcode %q (want a positive integer)", raw)
			return nil, nil, 0, false
		}
		topCode = v
	}
	return quantiles, kth, topCode, true
}

// resolveReleaseKey maps a (hierarchy, version) pair to the most recent
// durable release artifact of that pinned version. Pinned queries stay
// byte-stable as the hierarchy keeps moving: the version's fingerprint
// is immutable, and the artifacts it names never change.
func (s *Server) resolveReleaseKey(w http.ResponseWriter, hierarchy, version string) (string, bool) {
	l, ok := s.hierarchyLog(w, hierarchy)
	if !ok {
		return "", false
	}
	var seq int64
	if version != "" {
		v, err := strconv.ParseInt(version, 10, 64)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "bad version %q (want a nonnegative integer)", version)
			return "", false
		}
		seq = v
	}
	if seq == 0 && !s.catchUp(w, l) {
		return "", false
	}
	ver, ok := l.Version(seq)
	if !ok {
		WriteError(w, http.StatusNotFound, "hierarchy h-%s has no version %d (head is %d)", l.ID(), seq, l.Head().Seq)
		return "", false
	}
	latestFor := func(fp string) (key string) {
		var latest time.Time
		for _, m := range s.st.List() {
			if m.Hierarchy == fp && (key == "" || m.CreatedAt.After(latest)) {
				key, latest = m.Key, m.CreatedAt
			}
		}
		return key
	}
	var key string
	if s.st != nil {
		key = latestFor(ver.Fingerprint)
		// Another node may have released this version since the index
		// was last read.
		if key == "" && s.shared() && s.st.Refresh() == nil {
			key = latestFor(ver.Fingerprint)
		}
	}
	if key == "" {
		WriteError(w, http.StatusNotFound,
			"no durable release for hierarchy h-%s version %d; POST /v1/release with \"version\": %d first",
			l.ID(), ver.Seq, ver.Seq)
		return "", false
	}
	return key, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	q := r.URL.Query()
	key := releaseID(q.Get("release"))
	if key == "" && q.Get("hierarchy") != "" {
		// Version-pinned addressing: ?hierarchy=&version= resolves to the
		// latest durable artifact of that immutable version (version
		// absent or 0 = current head).
		resolved, ok := s.resolveReleaseKey(w, q.Get("hierarchy"), q.Get("version"))
		if !ok {
			return
		}
		key = resolved
	}
	if key == "" {
		WriteError(w, http.StatusBadRequest, "missing release query parameter (or hierarchy+version)")
		return
	}
	quantiles, kth, topCode, ok := ParseQueryParams(w, q)
	if !ok {
		return
	}
	params := engine.QueryParams{Quantiles: quantiles, KthLargest: kth, TopCode: topCode}

	rep, err := s.eng.Query(key, node, params)
	switch {
	case errors.Is(err, engine.ErrNotCached):
		WriteError(w, http.StatusNotFound, "release not cached; POST /v1/release to (re)compute it")
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, toQueryResponse(rep))
}

// tenantStatus is one tenant (hierarchy) in GET /v1/tenants: its QoS
// scheduling state merged with its request ledger and privacy spend.
type tenantStatus struct {
	Tenant       string  `json:"tenant"`
	Weight       float64 `json:"weight"`
	Active       int     `json:"active"`
	Queued       int     `json:"queued"`
	Granted      uint64  `json:"granted"`
	Rejected     uint64  `json:"rejected"`
	Cancelled    uint64  `json:"cancelled"`
	QueueWaitMS  float64 `json:"queue_wait_ms"`
	Requests     uint64  `json:"requests"`
	CacheHits    uint64  `json:"cache_hits"`
	Deduped      uint64  `json:"deduped"`
	StoreHits    uint64  `json:"store_hits"`
	PeerHits     uint64  `json:"peer_hits"`
	Computed     uint64  `json:"computed"`
	EpsilonSpent float64 `json:"epsilon_spent"`
}

// tenantsResponse is the body of GET /v1/tenants: the compute
// scheduler's aggregate state plus every known tenant.
type tenantsResponse struct {
	ComputeSlots int            `json:"compute_slots"`
	InUse        int            `json:"in_use"`
	QueueDepth   int            `json:"queue_depth"`
	Queued       int            `json:"queued"`
	Rejected     uint64         `json:"rejected"`
	ActiveReads  uint64         `json:"active_reads"`
	Reads        uint64         `json:"reads"`
	Tenants      []tenantStatus `json:"tenants"`
}

// handleTenants reports the QoS state per tenant: weights, live queue
// occupancy, admission counters, and how each tenant's requests were
// satisfied. Operators watch it to decide when a tenant needs its
// weight raised — or its client fixed.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Scheduler().Snapshot()
	stats := s.eng.TenantStats()
	resp := tenantsResponse{
		ComputeSlots: snap.Slots,
		InUse:        snap.InUse,
		QueueDepth:   snap.QueueDepth,
		Queued:       snap.Queued,
		Rejected:     snap.Rejected,
		ActiveReads:  snap.ActiveReads,
		Reads:        snap.Reads,
		Tenants:      make([]tenantStatus, 0, len(stats)),
	}
	for _, ts := range stats {
		resp.Tenants = append(resp.Tenants, tenantStatus{
			Tenant:       "h-" + ts.Tenant,
			Weight:       ts.Weight,
			Active:       ts.Active,
			Queued:       ts.Queued,
			Granted:      ts.Granted,
			Rejected:     ts.Rejected,
			Cancelled:    ts.Cancelled,
			QueueWaitMS:  float64(ts.QueueWait.Microseconds()) / 1000,
			Requests:     ts.Requests,
			CacheHits:    ts.CacheHits,
			Deduped:      ts.Deduped,
			StoreHits:    ts.StoreHits,
			PeerHits:     ts.PeerHits,
			Computed:     ts.Computed,
			EpsilonSpent: ts.EpsilonSpent,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// healthzResponse is the JSON shape of GET /healthz. Instance is the
// engine's random per-process identity: cluster gateways record it so
// topology introspection can name which process answers at each URL
// (and notice restarts, which mint a fresh id).
// healthzResponse is the body of GET /healthz. SharedStore reports
// whether the node's store is shared by the fleet (an S3 bucket); the
// gateway ejects backends that report false, since a node with private
// state would answer differently from its peers.
type healthzResponse struct {
	Status      string `json:"status"`
	Instance    string `json:"instance"`
	Hierarchies int    `json:"hierarchies"`
	Inflight    int    `json:"inflight_releases"`
	SharedStore bool   `json:"shared_store"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hierarchies := s.logs.Len()
	WriteJSON(w, http.StatusOK, healthzResponse{
		Status:      "ok",
		Instance:    s.eng.ID(),
		Hierarchies: hierarchies,
		Inflight:    s.eng.Metrics().InFlight,
		SharedStore: s.shared(),
	})
}

// handleMetrics exposes the engine counters in the Prometheus text
// exposition format, dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	logs := s.logs.Logs()
	hierarchies := len(logs)
	var versions int64
	for _, l := range logs {
		versions += l.Head().Seq
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	put := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n%s %v\n", name, help, name, value)
	}
	put("hcoc_cache_hits_total", "Release requests answered from the cache.", m.CacheHits)
	put("hcoc_cache_misses_total", "Release requests that started a computation.", m.CacheMisses)
	put("hcoc_deduped_total", "Release requests coalesced onto an in-flight computation.", m.Deduped)
	put("hcoc_cache_hit_rate", "Fraction of release requests answered from the cache.", m.HitRate())
	put("hcoc_cache_entries", "Completed releases currently cached.", m.CacheEntries)
	put("hcoc_cache_capacity", "LRU capacity in releases.", m.CacheCapacity)
	put("hcoc_cache_cost_bytes", "Estimated resident bytes of cached releases (run accounting).", m.CacheCostBytes)
	put("hcoc_cache_budget_bytes", "Byte budget of the release cache (0 = unbudgeted).", m.CacheBudgetBytes)
	put("hcoc_cache_runs", "Total histogram runs held across cached releases.", m.CacheRuns)
	put("hcoc_cache_evictions_total", "Completed releases evicted by the LRU.", m.Evictions)
	put("hcoc_store_hits_total", "Reads served from the durable store without recomputation.", m.StoreHits)
	put("hcoc_store_puts_total", "Releases written through to the durable store.", m.StorePuts)
	put("hcoc_store_errors_total", "Failed durable-store reads/writes (request still served).", m.StoreErrors)
	put("hcoc_store_artifacts", "Releases held by the durable store.", m.StoreArtifacts)
	put("hcoc_peer_fetch_attempts_total", "Cache+store misses that consulted the peer tier.", m.PeerFetchAttempts)
	put("hcoc_peer_fetch_hits_total", "Peer fetches that returned an artifact, avoiding a recompute.", m.PeerFetchHits)
	put("hcoc_peer_fetch_failures_total", "Peer fetches that failed in transport (clean misses excluded).", m.PeerFetchFailures)
	backend, shared := "none", s.shared()
	if s.st != nil {
		backend = s.st.Backend()
	}
	fmt.Fprintf(w, "# HELP hcoc_store_backend_info Configured blob backend (constant 1; the labels carry the information).\nhcoc_store_backend_info{backend=%q,shared=%q} 1\n",
		backend, strconv.FormatBool(shared))
	put("hcoc_epsilon_spent_total", "Cumulative epsilon of actual computations across hierarchies.", m.EpsilonSpent)
	put("hcoc_epsilon_spent_local", "Epsilon drawn by this process (excludes spend replayed from the store manifest).", m.EpsilonSpentLocal)
	put("hcoc_epsilon_limit_per_hierarchy", "Configured per-hierarchy epsilon bound (0 = unenforced).", m.EpsilonLimit)
	put("hcoc_jobs", "Async release jobs currently retained.", s.jobs.Len())
	put("hcoc_releases_total", "Completed release computations.", m.Releases)
	put("hcoc_inflight_releases", "Release computations running now.", m.InFlight)
	put("hcoc_queries_total", "Node query reads served (batch entries counted individually).", m.Queries)
	put("hcoc_batch_queries_total", "Batch query requests served, each one engine pass.", m.Batches)
	put("hcoc_release_seconds_total", "Cumulative release computation time.", m.ReleaseTotal.Seconds())
	put("hcoc_release_seconds_last", "Duration of the most recent release computation.", m.LastRelease.Seconds())
	put("hcoc_hierarchies", "Hierarchies (event logs) currently loaded.", hierarchies)
	put("hcoc_hierarchy_versions", "Immutable hierarchy versions across all event logs.", versions)
	put("hcoc_incremental_releases_total", "Release computations that reused retained state from a prior version.", m.IncrementalReleases)
	put("hcoc_recompute_nodes_estimated_total", "Nodes re-estimated across incremental-capable computations.", m.RecomputeNodesEstimated)
	put("hcoc_recompute_nodes_total", "Nodes visited across incremental-capable computations.", m.RecomputeNodesTotal)
	put("hcoc_recompute_parents_matched_total", "Parent rerun-matching passes executed across incremental-capable computations.", m.RecomputeParentsMatched)
	put("hcoc_recompute_parents_total", "Parent nodes visited across incremental-capable computations.", m.RecomputeParentsTotal)
	put("hcoc_release_states", "Per-release recompute states currently retained.", m.StateEntries)
	put("hcoc_release_state_cost_bytes", "Estimated resident bytes of retained recompute states.", m.StateCostBytes)
	put("hcoc_epsilon_limit_continual", "Configured continual-observation epsilon bound per hierarchy (0 = unenforced).", s.contLimit)

	// Compute scheduler: pool state, the read priority lane, and one
	// labeled series set per tenant.
	snap := s.eng.Scheduler().Snapshot()
	put("hcoc_compute_slots", "Compute slots in the release pool.", snap.Slots)
	put("hcoc_compute_slots_in_use", "Compute slots held by running computations.", snap.InUse)
	put("hcoc_compute_queue_depth", "Per-tenant compute queue bound.", snap.QueueDepth)
	put("hcoc_compute_queued", "Release computations queued for a slot across tenants.", snap.Queued)
	put("hcoc_compute_rejected_total", "Release requests refused at admission (queue full).", snap.Rejected)
	put("hcoc_read_lane_active", "Reads in flight on the priority lane (never queued behind compute).", snap.ActiveReads)
	put("hcoc_read_lane_reads_total", "Lifetime reads admitted on the priority lane.", snap.Reads)

	labeled := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	stats := s.eng.TenantStats()
	labeled("hcoc_tenant_requests_total", "Release requests per tenant (hierarchy), however satisfied.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_requests_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Requests)
	}
	labeled("hcoc_tenant_computed_total", "Release computations per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_computed_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Computed)
	}
	labeled("hcoc_tenant_deduped_total", "Requests coalesced onto in-flight computations, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_deduped_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Deduped)
	}
	labeled("hcoc_tenant_rejected_total", "Admission refusals (queue full) per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_rejected_total{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Rejected)
	}
	labeled("hcoc_tenant_queued", "Release computations queued now, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_queued{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Queued)
	}
	labeled("hcoc_tenant_active", "Compute slots held now, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_active{tenant=%q} %d\n", "h-"+ts.Tenant, ts.Active)
	}
	labeled("hcoc_tenant_weight", "Configured fair-share weight per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_weight{tenant=%q} %g\n", "h-"+ts.Tenant, ts.Weight)
	}
	labeled("hcoc_tenant_queue_wait_seconds_total", "Cumulative time granted computations spent queued, per tenant.")
	for _, ts := range stats {
		fmt.Fprintf(w, "hcoc_tenant_queue_wait_seconds_total{tenant=%q} %g\n", "h-"+ts.Tenant, ts.QueueWait.Seconds())
	}
}
