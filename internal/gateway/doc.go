// Package gateway is the sharded-serving front end: an HTTP handler
// exposing the same /v1 surface as a single hcoc-serve backend, and a
// ring-affinity proxy over a fleet of them.
//
// Every backend mounts one shared store (hcoc-serve -store-backend=s3
// on a common bucket), which is the fleet's only durability layer:
// artifacts, event logs and the budget manifest all live there, and
// any backend can answer any request from it. The gateway therefore
// holds no data and copies none. It forwards each request, whole, to
// one backend, chosen by a consistent-hash ring keyed by the request's
// natural id — the hierarchy fingerprint for uploads, appends, version
// listings, releases and budgets; the release id for downloads and
// queries; a batch's first release — so repeated work on one key
// lands on the backend whose caches already hold it. When that backend
// fails, the request moves to the next live one in ring order, and
// ejected backends are tried only after every live one. GET /v1/cluster exposes the topology: ring
// parameters, per-backend health and traffic counters, and (with
// ?key) a key's current route.
//
// Health comes from hcoc/internal/cluster: periodic /healthz probes
// and request-path failures share one ejection counter, and the first
// success — probe or forwarded request — re-admits a backend. A
// backend whose /healthz reports shared_store=false fails its probe,
// since its private state would answer differently from its peers; it
// takes no traffic until a probe finds the store mounted. The
// command wrapper is cmd/hcoc-gateway.
package gateway
