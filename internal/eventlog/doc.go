// Package eventlog models hierarchy ingestion as an append-only,
// crash-safe event log: a snapshot event establishes a hierarchy, and
// ordered delta events (add/remove groups, count drift) evolve it. Each
// applied event produces a new immutable hierarchy version — a
// monotonic sequence number plus the content fingerprint of the
// rebuilt tree — so releases, queries, and downloads can pin a version
// and stay byte-stable while the hierarchy keeps moving underneath.
//
// Persistence is the write/read split of CQRS event sourcing: one
// chunk object per event under events/<log>/<seq>.json in the shared
// BlobStore, plus a spend-neutral KindEvent manifest entry for
// discovery. Chunks are created with PutIfAbsent, which is atomic (a
// torn append is simply an absent object) and a compare-and-swap on
// the sequence number: when several nodes share one store, each
// version has exactly one writer, and a writer that lost catches up
// from the store before it checks If-Match again. Replay reads chunks
// in sequence and stops at the first missing or torn one — the last
// durable version — and verifies each rebuilt tree against the
// fingerprint recorded at append time. Chunks are never overwritten: a
// torn one (written outside these rules) is superseded by a
// replacement object, created with PutIfAbsent by the next append.
package eventlog
