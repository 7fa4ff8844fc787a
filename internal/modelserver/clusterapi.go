package modelserver

import (
	"net/http"
	"sort"
	"sync"

	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// StreamCluster adapts the streaming clustering engine to the HTTP layer:
// cluster.Incremental is not internally synchronized, so every entry point
// serialises through one mutex. Inserts are O(n) each, so holding the lock
// across an Add keeps tail latency bounded; the occasional drift rebuild is
// the one slow call, surfaced via the Rebuilt flag so callers can see it.
type StreamCluster struct {
	mu  sync.Mutex
	inc *cluster.Incremental
}

// NewStreamCluster wraps an incremental engine with the default HDBSCAN
// hyper-parameters and drift detector.
func NewStreamCluster() *StreamCluster {
	return &StreamCluster{inc: cluster.NewIncremental(cluster.DefaultOptions(), cluster.IncrementalOptions{})}
}

// Add streams one trace into the clustering.
func (c *StreamCluster) Add(tr *trace.Trace) cluster.AddResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.Add(tr)
}

// Stats snapshots the engine.
func (c *StreamCluster) Stats() cluster.IncrementalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.Stats()
}

// Rebuild forces a full recluster.
func (c *StreamCluster) Rebuild() cluster.IncrementalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inc.Rebuild()
	return c.inc.Stats()
}

// ClusterAddResult is the per-trace outcome of a /cluster/add call.
type ClusterAddResult struct {
	TraceID string `json:"traceId"`
	Index   int    `json:"index"`
	Label   int    `json:"label"`
	Rebuilt bool   `json:"rebuilt,omitempty"`
}

// ClusterAddResponse is the JSON reply of /cluster/add.
type ClusterAddResponse struct {
	Results []ClusterAddResult       `json:"results"`
	Skipped int                      `json:"skipped"`
	Stats   cluster.IncrementalStats `json:"stats"`
}

// handleCluster routes the streaming clustering endpoints. All of them 404
// when the server was started without a cluster engine.
func (s *Server) handleCluster(w http.ResponseWriter, req *http.Request) {
	if s.Cluster == nil {
		http.Error(w, "clustering not enabled", http.StatusNotFound)
		return
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/cluster/add":
		s.clusterAdd(w, req)
	case req.Method == http.MethodGet && req.URL.Path == "/cluster/stats":
		writeJSON(w, s.Cluster.Stats())
	case req.Method == http.MethodPost && req.URL.Path == "/cluster/rebuild":
		writeJSON(w, s.Cluster.Rebuild())
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// clusterAdd assembles the posted spans into traces (same body shape as
// /score) and streams each into the incremental engine in sorted trace-ID
// order, so one request's inserts are deterministic regardless of span
// order.
func (s *Server) clusterAdd(w http.ResponseWriter, req *http.Request) {
	timer := obs.H("modelserver.cluster.add_us").Start()
	defer timer.Stop()
	spans, ok := readSpans(w, req, "cluster")
	if !ok {
		return
	}
	traces, skipped := trace.AssembleAll(spans)
	sort.Slice(traces, func(i, j int) bool { return traces[i].TraceID < traces[j].TraceID })
	resp := ClusterAddResponse{Results: make([]ClusterAddResult, len(traces)), Skipped: skipped}
	for i, tr := range traces {
		res := s.Cluster.Add(tr)
		resp.Results[i] = ClusterAddResult{TraceID: tr.TraceID, Index: res.Index, Label: res.Label, Rebuilt: res.Rebuilt}
	}
	resp.Stats = s.Cluster.Stats()
	writeJSON(w, resp)
}
