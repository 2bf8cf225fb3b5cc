package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/gateway"
	"hcoc/internal/serve"
	"hcoc/internal/store"
	"hcoc/internal/store/s3stub"
)

// s3Bucket and s3Prefix name the shared bucket of the gateway stack.
const (
	s3Bucket = "hcoc"
	s3Prefix = "fleet"
)

// gatewayBackends and gatewayReplication shape the gateway stack:
// three hcoc-serve backends behind one hcoc-gateway, every release
// owned by two of them.
const (
	gatewayBackends    = 3
	gatewayReplication = 2
)

// listener is one loopback HTTP server and the goroutine serving it.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

// listen serves h on a fresh loopback port with the hcoc-serve server
// timeouts.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its serve goroutine.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if err != nil {
		_ = l.srv.Close()
	}
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// backend is one hcoc-serve daemon: the engine, its durable store and
// the HTTP server, built as cmd/hcoc-serve builds them.
type backend struct {
	eng *engine.Engine
	st  *store.Store
	ln  *listener
}

// stack is the serving stack one run drives: one disk-backed daemon,
// or (gateway stacks) an s3stub bucket shared by three daemons behind a
// gateway. url is where the benchmark's clients send requests.
type stack struct {
	dir      string
	tr       *tracer // nil on untraced runs
	s3       *listener
	backends []*backend
	gw       *gateway.Gateway
	gwLn     *listener
	url      string
}

// newStack builds a stack whose state lives under dir (removed on
// close). With tr set, every layer boundary the benchmark can reach
// from outside the program is wrapped for tracing.
func newStack(dir string, withGateway bool, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir, tr: tr}
	if err := s.build(withGateway); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) build(withGateway bool) error {
	if !withGateway {
		b, err := store.NewDisk(s.dir)
		if err != nil {
			return err
		}
		be, err := s.addBackend(b)
		if err != nil {
			return err
		}
		s.url = be.ln.url
		return nil
	}

	var stub http.Handler = s3stub.New(s3Bucket)
	if s.tr != nil {
		stub = &s3Counter{t: s.tr, next: stub}
	}
	ln, err := listen(stub)
	if err != nil {
		return err
	}
	s.s3 = ln
	urls := make([]string, 0, gatewayBackends)
	for i := 0; i < gatewayBackends; i++ {
		b, err := store.NewS3(store.S3Options{Endpoint: s.s3.url, Bucket: s3Bucket, Prefix: s3Prefix})
		if err != nil {
			return err
		}
		be, err := s.addBackend(b)
		if err != nil {
			return err
		}
		urls = append(urls, be.ln.url)
	}
	opts := gateway.Options{
		Backends:       urls,
		Replication:    gatewayReplication,
		SharedStore:    true,
		RepairInterval: -1,
	}
	if s.tr != nil {
		// The gateway's default client options with a tracing transport:
		// one retry per backend, the SDK's own 5-minute timeout.
		opts.ClientOptions = []client.Option{
			client.WithMaxRetries(1),
			client.WithHTTPClient(&http.Client{
				Timeout:   5 * time.Minute,
				Transport: &transport{t: s.tr, name: "gwcall", next: http.DefaultTransport},
			}),
		}
	}
	gw, err := gateway.New(opts)
	if err != nil {
		return err
	}
	gw.Start()
	s.gw = gw
	var h http.Handler = gw
	if s.tr != nil {
		h = &handler{t: s.tr, tier: "gateway", next: gw}
	}
	if s.gwLn, err = listen(h); err != nil {
		return err
	}
	s.url = s.gwLn.url
	return nil
}

// addBackend opens a store over b and serves an engine over it with the
// hcoc-serve defaults.
func (s *stack) addBackend(b store.BlobStore) (*backend, error) {
	if s.tr != nil {
		b = &blob{BlobStore: b, t: s.tr}
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	be := &backend{st: st}
	s.backends = append(s.backends, be)
	be.eng = engine.New(engine.Options{CacheSize: engine.DefaultCacheSize, Store: st})
	srv, err := serve.NewServer(be.eng, st, serve.WithContinualBudget(0))
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if s.tr != nil {
		h = &handler{t: s.tr, tier: "serve", next: srv}
	}
	if be.ln, err = listen(h); err != nil {
		return nil, err
	}
	return be, nil
}

// client returns an SDK client for the stack's front end, tracing its
// attempts when the stack is traced.
func (s *stack) client() (*client.Client, error) {
	if s.tr == nil {
		return client.New(s.url)
	}
	return client.New(s.url, client.WithHTTPClient(&http.Client{
		Timeout:   5 * time.Minute,
		Transport: &transport{t: s.tr, name: "client", next: http.DefaultTransport},
	}))
}

// close stops every server, waits for them, closes the stores and
// removes the stack's directory. It reports the first failure.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.gwLn != nil {
		keep(s.gwLn.close())
	}
	if s.gw != nil {
		s.gw.Stop()
	}
	for _, be := range s.backends {
		if be.ln != nil {
			keep(be.ln.close())
		}
		keep(be.st.Close())
	}
	if s.s3 != nil {
		keep(s.s3.close())
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	keep(os.RemoveAll(s.dir))
	return first
}

// engines lists the stack's engines, for counter snapshots.
func (s *stack) engines() []*engine.Engine {
	out := make([]*engine.Engine, len(s.backends))
	for i, be := range s.backends {
		out[i] = be.eng
	}
	return out
}
