package serve

import (
	"errors"
	"net/http"

	"hcoc/internal/engine"
	"hcoc/internal/query"
	"hcoc/internal/query/plan"
)

// maxBatchQueries bounds one POST /v1/query/batch body; a request this
// size still costs only one engine pass, the bound just keeps a single
// call from monopolizing the serving goroutine.
const maxBatchQueries = 4096

// batchQueryEntry is one query of a batch: a node plus the same
// optional statistics the single-query endpoint accepts as URL
// parameters. The cross-release fields select an aggregate beyond the
// default single-release stats and name the releases it reads; a plain
// entry (no op, no releases) keeps its pre-cross-release meaning.
type batchQueryEntry struct {
	Op         string    `json:"op,omitempty"`
	Releases   []string  `json:"releases,omitempty"`
	Node       string    `json:"node"`
	Quantiles  []float64 `json:"q,omitempty"`
	KthLargest []int64   `json:"k,omitempty"`
	TopCode    int       `json:"topcode,omitempty"`
}

// batchQueryRequest is the body of POST /v1/query/batch. Release is the
// default release for entries that name none; entries with cross-release
// ops list their own.
type batchQueryRequest struct {
	Release string            `json:"release"`
	Queries []batchQueryEntry `json:"queries"`
}

// seriesPoint is one release's node report within a series result.
type seriesPoint struct {
	Release string `json:"release"`
	queryResponse
}

// batchQueryItem is one result of a batch query: the payload of the
// entry's aggregate (node report for stats; emd/deltas, series points,
// or a left/right report pair for the cross-release ops), or an error
// naming why this query (and only this query) failed.
type batchQueryItem struct {
	queryResponse
	Op          string         `json:"op,omitempty"`
	Releases    []string       `json:"releases,omitempty"`
	EMD         *int64         `json:"emd,omitempty"`
	GroupsDelta *int64         `json:"groups_delta,omitempty"`
	PeopleDelta *int64         `json:"people_delta,omitempty"`
	Series      []seriesPoint  `json:"series,omitempty"`
	Left        *queryResponse `json:"left,omitempty"`
	Right       *queryResponse `json:"right,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// batchQueryResponse is the body of a successful POST /v1/query/batch:
// results index-aligned with the request's queries.
type batchQueryResponse struct {
	Release string           `json:"release"`
	Results []batchQueryItem `json:"results"`
}

// isLegacy reports whether every entry is a plain node query — the
// pre-cross-release body shape, which keeps its exact semantics
// (including whole-batch 400/404 on a missing or unknown release).
func (req batchQueryRequest) isLegacy() bool {
	for _, q := range req.Queries {
		if q.Op != "" || len(q.Releases) > 0 {
			return false
		}
	}
	return true
}

// handleBatchQuery evaluates N queries in a single engine pass. Plain
// single-release batches follow the original path: one cache/store read,
// per-item errors, whole-batch 404 only when the release itself is
// unavailable. Batches with cross-release entries go through the
// scan-sharing planner: each distinct release key is fetched exactly
// once, and every failure — including an unknown release key — is
// per-query.
func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		WriteError(w, http.StatusBadRequest, "no queries in batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		WriteError(w, http.StatusBadRequest, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries)
		return
	}
	if req.isLegacy() {
		s.legacyBatchQuery(w, req)
		return
	}
	results := s.eng.EvalBatch(planQueries(req))
	resp := batchQueryResponse{Release: req.Release, Results: make([]batchQueryItem, len(results))}
	for i, res := range results {
		resp.Results[i] = toBatchItem(req.Queries[i], res)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// legacyBatchQuery answers a plain single-release batch with the
// original single-lookup path and error semantics.
func (s *Server) legacyBatchQuery(w http.ResponseWriter, req batchQueryRequest) {
	key := releaseID(req.Release)
	if key == "" {
		WriteError(w, http.StatusBadRequest, "missing release")
		return
	}
	qs := make([]engine.NodeQuery, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = engine.NodeQuery{Node: q.Node, Params: engine.QueryParams{
			Quantiles:  q.Quantiles,
			KthLargest: q.KthLargest,
			TopCode:    q.TopCode,
		}}
	}
	items, err := s.eng.BatchQuery(key, qs)
	if errors.Is(err, engine.ErrNotCached) {
		WriteError(w, http.StatusNotFound, "release not cached; POST /v1/release to (re)compute it")
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "batch query failed: %v", err)
		return
	}
	resp := batchQueryResponse{Release: req.Release, Results: make([]batchQueryItem, len(items))}
	for i, item := range items {
		if item.Err != nil {
			resp.Results[i] = batchQueryItem{
				queryResponse: queryResponse{Node: req.Queries[i].Node},
				Error:         item.Err.Error(),
			}
			continue
		}
		resp.Results[i] = batchQueryItem{queryResponse: toQueryResponse(item.Report)}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// planQueries lowers the wire entries into the planner IR: ops parse
// with "" meaning stats (unknown names stay put and fail per query),
// release ids lose their wire "r-" prefix, and entries naming no
// releases inherit the request's default release when it has one.
func planQueries(req batchQueryRequest) []plan.Query {
	qs := make([]plan.Query, len(req.Queries))
	for i, q := range req.Queries {
		op, err := plan.ParseOp(q.Op)
		if err != nil {
			op = plan.Op(q.Op)
		}
		keys := make([]string, 0, len(q.Releases))
		for _, rel := range q.Releases {
			keys = append(keys, releaseID(rel))
		}
		if len(keys) == 0 && releaseID(req.Release) != "" {
			keys = []string{releaseID(req.Release)}
		}
		qs[i] = plan.Query{Op: op, Releases: keys, Node: q.Node, Params: query.Params{
			Quantiles:  q.Quantiles,
			KthLargest: q.KthLargest,
			TopCode:    q.TopCode,
		}}
	}
	return qs
}

// toBatchItem renders one planner result in the wire shape, echoing the
// entry's op and release ids as sent.
func toBatchItem(q batchQueryEntry, res plan.Result) batchQueryItem {
	item := batchQueryItem{
		queryResponse: queryResponse{Node: q.Node},
		Op:            q.Op,
		Releases:      q.Releases,
	}
	if res.Err != nil {
		item.Error = res.Err.Error()
		return item
	}
	switch {
	case res.Report != nil:
		item.queryResponse = reportToQueryResponse(q, *res.Report)
	case res.Series != nil:
		item.Series = make([]seriesPoint, len(res.Series))
		for i, pt := range res.Series {
			// Echo the wire release id (index-aligned with the entry's
			// releases), not the engine key the planner worked with.
			rel := pt.Release
			if i < len(q.Releases) {
				rel = q.Releases[i]
			}
			item.Series[i] = seriesPoint{Release: rel, queryResponse: reportToQueryResponse(q, pt.Report)}
		}
	case res.Left != nil && res.Right != nil:
		left := reportToQueryResponse(q, *res.Left)
		right := reportToQueryResponse(q, *res.Right)
		item.Left, item.Right = &left, &right
	}
	item.EMD = res.EMD
	item.GroupsDelta = res.GroupsDelta
	item.PeopleDelta = res.PeopleDelta
	return item
}

// reportToQueryResponse converts a query-layer report to the wire shape,
// re-pairing the rank statistics with the parameters that requested
// them.
func reportToQueryResponse(q batchQueryEntry, rep query.Report) queryResponse {
	resp := queryResponse{
		Node:     q.Node,
		Groups:   rep.Groups,
		People:   rep.People,
		Mean:     rep.Mean,
		Median:   rep.Median,
		Gini:     rep.Gini,
		TopCoded: rep.TopCoded,
	}
	for i, size := range rep.Quantiles {
		resp.Quantiles = append(resp.Quantiles, quantileValue{Q: q.Quantiles[i], Size: size})
	}
	for i, size := range rep.KthLargest {
		resp.KthLargest = append(resp.KthLargest, orderStatValue{K: q.KthLargest[i], Size: size})
	}
	return resp
}

// toQueryResponse converts an engine node report to the wire shape
// shared by the single-query and batch endpoints.
func toQueryResponse(rep engine.NodeReport) queryResponse {
	resp := queryResponse{
		Node:     rep.Node,
		Groups:   rep.Groups,
		People:   rep.People,
		Mean:     rep.Mean,
		Median:   rep.Median,
		Gini:     rep.Gini,
		TopCoded: rep.TopCoded,
	}
	for _, v := range rep.Quantiles {
		resp.Quantiles = append(resp.Quantiles, quantileValue{Q: v.Q, Size: v.Size})
	}
	for _, v := range rep.KthLargest {
		resp.KthLargest = append(resp.KthLargest, orderStatValue{K: v.K, Size: v.Size})
	}
	return resp
}

// versionBudget is one version's share of a hierarchy's privacy spend.
type versionBudget struct {
	Version      int64   `json:"version"`
	Fingerprint  string  `json:"fingerprint"`
	SpentEpsilon float64 `json:"spent_epsilon"`
}

// budgetStatusResponse is the body of GET /v1/budget/{id}. The
// top-level spent/remaining fields describe the head version under the
// per-version -max-epsilon-per-hierarchy bound; versions breaks the
// spend down per immutable version; the continual_* fields report the
// cross-version continual-observation account.
type budgetStatusResponse struct {
	Hierarchy                 string          `json:"hierarchy"`
	SpentEpsilon              float64         `json:"spent_epsilon"`
	RemainingEpsilon          float64         `json:"remaining_epsilon"`
	MaxEpsilonPerHierarchy    float64         `json:"max_epsilon_per_hierarchy"`
	Enforced                  bool            `json:"enforced"`
	Versions                  []versionBudget `json:"versions"`
	ContinualSpentEpsilon     float64         `json:"continual_spent_epsilon"`
	ContinualRemainingEpsilon float64         `json:"continual_remaining_epsilon"`
	MaxEpsilonContinual       float64         `json:"max_epsilon_continual"`
	ContinualEnforced         bool            `json:"continual_enforced"`
}

// hierarchyID strips the "h-" prefix hierarchy ids are served with.
func hierarchyID(id string) string {
	if len(id) > 2 && id[:2] == "h-" {
		return id[2:]
	}
	return id
}

// handleBudget reports a hierarchy's privacy-budget position without
// spending anything: what past computations cost (per version and
// across all versions), what remains under the per-version and
// continual-observation bounds, and whether each bound is enforced.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	l, ok := s.hierarchyLog(w, r.PathValue("id"))
	if !ok {
		return
	}
	head := l.Head()
	spent, remaining, limit, enforced := s.eng.BudgetStatus(head.Fingerprint)
	resp := budgetStatusResponse{
		Hierarchy:              "h-" + l.ID(),
		SpentEpsilon:           spent,
		RemainingEpsilon:       remaining,
		MaxEpsilonPerHierarchy: limit,
		Enforced:               enforced,
	}
	for _, v := range l.Versions() {
		vs, _, _, _ := s.eng.BudgetStatus(v.Fingerprint)
		resp.Versions = append(resp.Versions, versionBudget{
			Version:      v.Seq,
			Fingerprint:  v.Fingerprint,
			SpentEpsilon: vs,
		})
	}
	resp.ContinualSpentEpsilon, resp.ContinualRemainingEpsilon, resp.ContinualEnforced = s.continualStatus(l)
	resp.MaxEpsilonContinual = s.contLimit
	WriteJSON(w, http.StatusOK, resp)
}
