package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcoc/internal/store"
)

// traceHeader carries "<op id> <op kind> <parent span id>" from a traced
// HTTP client to a traced handler, so the handler's span joins the
// benchmark op that caused it.
const traceHeader = "X-Bench-Trace"

// span is one timed call across a layer boundary. Spans of one benchmark
// op share Op; Parent is the span that caused this one (0: none known —
// store calls carry no request context, so their spans are unparented).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is the time spent inside the call itself when it differs
	// from End-Start (a store read is busy only inside Get/Read/Seek/
	// Close, not while its caller writes the bytes to a socket).
	Busy  int64 `json:"busy_ns,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) busy() int64 {
	if s.Busy > 0 {
		return s.Busy
	}
	return s.dur()
}

// tracer keeps spans in memory while on; every wrapper below is a plain
// pass-through while it is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	s3Requests atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanRef is the trace context a request carries: the benchmark op it
// serves and the span that issued it.
type spanRef struct {
	op   int64
	kind string
	span int64
}

type refKey struct{}

func withRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(refKey{}).(spanRef)
	return r, ok
}

// beginOp opens the span of one benchmark op (one SDK call) and returns
// the context to issue it under plus the function that closes it.
func (t *tracer) beginOp(ctx context.Context, kind string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	id := t.ids.Add(1)
	start := t.now()
	return withRef(ctx, spanRef{op: id, kind: kind, span: id}), func() {
		t.add(span{ID: id, Op: id, Name: "op." + kind, Start: start, End: t.now()})
	}
}

// transport is an http.RoundTripper that records one span per attempt,
// from sending the request until the caller closes the response body
// (so a download's span covers the client's decode), and forwards the
// op context to the handler in traceHeader.
type transport struct {
	t    *tracer
	name string // span name prefix: "client" or "gwcall"
	next http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := refFrom(req.Context())
	if !tr.t.on.Load() || !ok {
		return tr.next.RoundTrip(req)
	}
	id := tr.t.ids.Add(1)
	sp := span{ID: id, Parent: ref.span, Op: ref.op, Name: tr.name + "." + ref.kind, Start: tr.t.now()}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d %s %d", ref.op, ref.kind, id))
	resp, err := tr.next.RoundTrip(req)
	if err != nil {
		sp.End = tr.t.now()
		tr.t.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, sp: sp}
	return resp, nil
}

// spanBody closes its attempt span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// handler records one span per request served by a tier ("serve" or
// "gateway"), parented to the attempt span named in traceHeader, and
// passes the op context on through the request context so the tier's
// own outbound calls (the gateway's backend calls) join the same op.
type handler struct {
	t    *tracer
	tier string
	next http.Handler
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(traceHeader)
	if !h.t.on.Load() || v == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	var ref spanRef
	var parent int64
	if f := strings.Fields(v); len(f) == 3 {
		ref.op, _ = strconv.ParseInt(f[0], 10, 64)
		ref.kind = f[1]
		parent, _ = strconv.ParseInt(f[2], 10, 64)
	}
	id := h.t.ids.Add(1)
	ref.span = id
	start := h.t.now()
	h.next.ServeHTTP(w, r.WithContext(withRef(r.Context(), ref)))
	h.t.add(span{ID: id, Parent: parent, Op: ref.op, Name: h.tier + "." + ref.kind, Start: start, End: h.t.now()})
}

// s3Counter counts the object-store requests the s3stub serves.
type s3Counter struct {
	t    *tracer
	next http.Handler
}

func (c *s3Counter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.t.on.Load() {
		c.t.s3Requests.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// blob wraps a store.BlobStore, recording a span per call: store.put
// and store.get carry the bytes moved, store.manifest_append times the
// manifest write that follows every durable put.
type blob struct {
	store.BlobStore
	t *tracer
}

func (b *blob) timed(name string, bytes int64, call func() error) error {
	if !b.t.on.Load() {
		return call()
	}
	start := b.t.now()
	err := call()
	b.t.add(span{ID: b.t.ids.Add(1), Name: name, Start: start, End: b.t.now(), Bytes: bytes})
	return err
}

func (b *blob) Put(key string, data []byte) error {
	return b.timed("store.put", int64(len(data)), func() error { return b.BlobStore.Put(key, data) })
}

func (b *blob) AppendManifest(line []byte) error {
	return b.timed("store.manifest_append", int64(len(line)), func() error { return b.BlobStore.AppendManifest(line) })
}

func (b *blob) Get(key string) (io.ReadSeekCloser, store.BlobInfo, error) {
	if !b.t.on.Load() {
		return b.BlobStore.Get(key)
	}
	start := b.t.now()
	rc, info, err := b.BlobStore.Get(key)
	busy := b.t.now() - start
	if err != nil {
		b.t.add(span{ID: b.t.ids.Add(1), Name: "store.get", Start: start, End: b.t.now(), Busy: busy})
		return nil, info, err
	}
	return &timedReader{rsc: rc, t: b.t, start: start, busy: busy}, info, nil
}

// timedReader accumulates the time spent inside a stored object's
// Read/Seek/Close calls and records the store.get span on Close.
type timedReader struct {
	rsc   io.ReadSeekCloser
	t     *tracer
	start int64
	busy  int64
	bytes int64
}

func (r *timedReader) Read(p []byte) (int, error) {
	s := r.t.now()
	n, err := r.rsc.Read(p)
	r.busy += r.t.now() - s
	r.bytes += int64(n)
	return n, err
}

func (r *timedReader) Seek(off int64, whence int) (int64, error) {
	s := r.t.now()
	n, err := r.rsc.Seek(off, whence)
	r.busy += r.t.now() - s
	return n, err
}

func (r *timedReader) Close() error {
	s := r.t.now()
	err := r.rsc.Close()
	end := r.t.now()
	r.busy += end - s
	r.t.add(span{ID: r.t.ids.Add(1), Name: "store.get", Start: r.start, End: end, Busy: r.busy, Bytes: r.bytes})
	return err
}

// layerTimes is one span name's totals: how many, their summed
// duration, and their summed self time (duration minus the part of it
// their child spans cover).
type layerTimes struct {
	name       string
	n          int
	total, own int64
}

// selfTimes aggregates spans by name.
func selfTimes(spans []span) []layerTimes {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTimes)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTimes{name: s.Name}
			by[s.Name] = lt
		}
		lt.n++
		lt.total += s.busy()
		lt.own += s.busy() - covered(s, children[s.ID])
	}
	out := make([]layerTimes, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// writeSpans saves the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
