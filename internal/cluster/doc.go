// Package cluster is the membership and routing brain of a sharded
// hcoc deployment: a consistent-hash ring (virtual nodes) keyed by
// hierarchy fingerprint, plus per-backend health tracking with
// failure-count ejection and probe-driven re-admission.
//
// The ring decides affinity — a deterministic, primary-first order of
// every backend for each key, so a key's traffic warms one backend's
// cache — while the health tracker decides availability, reordering
// that list so live backends are tried first and ejected ones only as
// a last resort. The default probe also requires each backend to mount
// the fleet's shared store; one that does not is ejected at once and
// left out of routing until a probe finds the store mounted. The
// hcoc-gateway front end composes the two into request routing; the
// package itself performs no I/O beyond the pluggable health probe.
package cluster
