// Package modelserver implements the centralized model server of §4: it
// maintains the life cycle of Sleuth models — creation, storage, update,
// inheritance (fine-tuned children recording their parent) and retirement
// — and serves them to training and inference workers over HTTP. A score
// request runs its traces through one ScoreBatch call on its own handler
// goroutine: the per-trace forward passes are independent, and ScoreBatch
// already fans them out over the CPUs.
//
// Models are stored as versioned entries under a directory; metadata lives
// in a JSON manifest next to the model blobs.
package modelserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// ModelInfo is the metadata of one stored model version.
type ModelInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// ParentName/ParentVersion record inheritance (fine-tuned from).
	ParentName    string `json:"parentName,omitempty"`
	ParentVersion int    `json:"parentVersion,omitempty"`
	// TrainedOn is a free-form provenance note (app name, sample count).
	TrainedOn string `json:"trainedOn,omitempty"`
	// Retired models are kept for lineage but not served as latest.
	Retired bool `json:"retired,omitempty"`
	// CreatedUnix is the registration time (seconds).
	CreatedUnix int64 `json:"createdUnix"`
	// Params is the parameter count (for capacity planning).
	Params int `json:"params"`
}

// Registry is the on-disk model store.
type Registry struct {
	dir string

	mu       sync.RWMutex
	manifest map[string][]ModelInfo // name → versions ascending

	// cache holds the process-shared in-memory instance of each served
	// version, keyed "name@version". Blobs are immutable — Publish always
	// mints a fresh version number and Retire only flips manifest metadata
	// — so entries never need invalidation; "latest" is resolved against
	// the manifest BEFORE the cache lookup, so a newly published version
	// takes over immediately. Sharing one instance is safe: scoring only
	// reads the weights, and the per-trace feature caches behind it are
	// internally synchronized.
	cacheMu sync.RWMutex
	cache   map[string]*core.Model

	// warm flips once WarmCache has preloaded served versions (readiness).
	warm atomic.Bool
}

// manifestFile is the registry metadata file name.
const manifestFile = "manifest.json"

// Open creates or opens a registry rooted at dir. A manifest entry whose
// key is not sanitized, or whose versions carry another Name, fails with
// ErrBadName.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Registry{dir: dir, manifest: map[string][]ModelInfo{}, cache: map[string]*core.Model{}}
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return r, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(data, &r.manifest); err != nil {
		return nil, fmt.Errorf("modelserver: corrupt manifest: %w", err)
	}
	// Publish files each name's blobs under that name, so a key it would
	// refuse, or an entry filed under another name, has no blob Get can
	// load (and a key like ../x points outside dir).
	for name, versions := range r.manifest {
		ok := sanitized(name)
		for _, v := range versions {
			ok = ok && v.Name == name
		}
		if !ok {
			return nil, fmt.Errorf("%w: manifest entry %q; republish it under a valid name", ErrBadName, name)
		}
	}
	return r, nil
}

// save persists the manifest (callers hold the write lock).
func (r *Registry) save() error {
	data, err := json.MarshalIndent(r.manifest, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(r.dir, manifestFile))
}

// blobPath returns the model blob location for a version.
func (r *Registry) blobPath(name string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s@%d.gob", name, version))
}

// ErrBadName reports a model name Publish refuses.
var ErrBadName = errors.New("modelserver: model name must be non-empty and use only A-Z a-z 0-9 - _ .")

// sanitized reports whether name is non-empty and filesystem-safe as it
// stands, so it names its own blob file and no other name shares it.
func sanitized(name string) bool {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return name != ""
}

// Publish stores a new version of the named model and returns its info.
// parent may be nil for models trained from scratch. A name that is not
// sanitized fails with ErrBadName.
func (r *Registry) Publish(name string, m *core.Model, trainedOn string, parent *ModelInfo) (ModelInfo, error) {
	if !sanitized(name) {
		return ModelInfo{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.manifest[name]
	info := ModelInfo{
		Name:        name,
		Version:     len(versions) + 1,
		TrainedOn:   trainedOn,
		CreatedUnix: time.Now().Unix(),
		Params:      m.NumParams(),
	}
	if parent != nil {
		info.ParentName = parent.Name
		info.ParentVersion = parent.Version
	}
	f, err := os.Create(r.blobPath(name, info.Version))
	if err != nil {
		return ModelInfo{}, err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return ModelInfo{}, err
	}
	if err := f.Close(); err != nil {
		return ModelInfo{}, err
	}
	r.manifest[name] = append(versions, info)
	if err := r.save(); err != nil {
		return ModelInfo{}, err
	}
	return info, nil
}

// ErrNotFound reports a missing model or version.
var ErrNotFound = errors.New("modelserver: model not found")

// errBadVersion reports a version that is neither "latest" nor a number.
var errBadVersion = errors.New("modelserver: bad version")

// Latest loads the newest non-retired version of the named model.
func (r *Registry) Latest(name string) (*core.Model, ModelInfo, error) {
	info, err := r.resolveInfo(name, "latest")
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return r.load(info)
}

// load reads a version's blob from disk, bypassing the serving cache.
func (r *Registry) load(info ModelInfo) (*core.Model, ModelInfo, error) {
	m, err := core.LoadFile(r.blobPath(info.Name, info.Version))
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return m, info, nil
}

// resolveInfo maps ("name", "latest"|"3") to the concrete ModelInfo using
// only the manifest — no disk I/O. The serving path resolves first and
// caches by concrete version, so "latest" always tracks new publishes.
func (r *Registry) resolveInfo(name, versionStr string) (ModelInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if versionStr == "latest" {
		versions := r.manifest[name]
		for i := len(versions) - 1; i >= 0; i-- {
			if !versions[i].Retired {
				return versions[i], nil
			}
		}
		return ModelInfo{}, ErrNotFound
	}
	v, err := strconv.Atoi(versionStr)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("%w %q", errBadVersion, versionStr)
	}
	info, ok := r.find(name, v)
	if !ok {
		return ModelInfo{}, ErrNotFound
	}
	return info, nil
}

// sharedModel returns the cached in-memory instance of a version, loading
// the blob once per process: for a small model, deserializing the gob on
// every request would cost more than the forward pass it feeds.
func (r *Registry) sharedModel(info ModelInfo) (*core.Model, error) {
	key := fmt.Sprintf("%s@%d", info.Name, info.Version)
	r.cacheMu.RLock()
	m, ok := r.cache[key]
	r.cacheMu.RUnlock()
	if ok {
		obs.C("modelserver.cache.hits").Inc()
		return m, nil
	}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if m, ok := r.cache[key]; ok {
		obs.C("modelserver.cache.hits").Inc()
		return m, nil
	}
	obs.C("modelserver.cache.misses").Inc()
	m, err := core.LoadFile(r.blobPath(info.Name, info.Version))
	if err != nil {
		return nil, err
	}
	r.cache[key] = m
	return m, nil
}

func (r *Registry) find(name string, version int) (ModelInfo, bool) {
	for _, info := range r.manifest[name] {
		if info.Version == version {
			return info, true
		}
	}
	return ModelInfo{}, false
}

// Retire marks a version as retired (kept for lineage, no longer latest).
func (r *Registry) Retire(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.manifest[name]
	for i := range versions {
		if versions[i].Version == version {
			versions[i].Retired = true
			return r.save()
		}
	}
	return ErrNotFound
}

// List returns all model infos, sorted by name then version.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ModelInfo
	for _, versions := range r.manifest {
		out = append(out, versions...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Lineage returns the chain of ancestors of a version, nearest first.
func (r *Registry) Lineage(name string, version int) ([]ModelInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.find(name, version)
	if !ok {
		return nil, ErrNotFound
	}
	var chain []ModelInfo
	seen := map[string]bool{}
	for info.ParentName != "" {
		key := fmt.Sprintf("%s@%d", info.ParentName, info.ParentVersion)
		if seen[key] {
			break // defensive: corrupt manifests must not loop forever
		}
		seen[key] = true
		parent, ok := r.find(info.ParentName, info.ParentVersion)
		if !ok {
			break
		}
		chain = append(chain, parent)
		info = parent
	}
	return chain, nil
}

// Server exposes the registry over HTTP:
//
//	GET  /models                         list
//	GET  /models/{name}/latest           model blob (gob)
//	GET  /models/{name}/{version}        model blob (gob)
//	GET  /models/{name}/{version}/lineage  ancestor list (JSON)
//	POST /models/{name}?trainedOn=...&parent={name}@{version}   publish blob
//	POST /models/{name}/{version}/retire   retire
//	POST /models/{name}/{version}/score    batched inference (JSON spans)
//	GET  /healthz                          liveness + build info (JSON)
//	GET  /readyz                           readiness: cache warm + injected checks
//	GET  /metrics                          Prometheus text exposition
//	GET  /debug/alerts                     watchdog alert states (JSON)
//	GET  /debug/series                     time-series ring buffers (JSON)
//	GET  /debug/traces                     recent request self-traces (JSON)
//	GET  /debug/pprof/...                  runtime profiles
type Server struct {
	Registry *Registry
	// AccessLog, if non-nil, receives one structured line per request
	// (method, path, status, duration, request ID). The request ID is
	// echoed in the X-Request-ID response header either way.
	AccessLog *log.Logger
	// Ready holds extra readiness checks served on /readyz alongside the
	// built-in model-cache-warm check (a main adds the watchdog's
	// ReadyCheck here).
	Ready []obs.ReadyCheck
}

// WarmCache preloads the latest non-retired version of every model into
// the in-memory cache — called at boot so /readyz flips ready only once
// the first score request would be served from memory, not a cold gob
// load. Returns the number of versions warmed; load errors skip the
// version (a corrupt historical blob must not wedge startup).
func (r *Registry) WarmCache() int {
	warmed := 0
	for _, info := range r.List() {
		if info.Retired {
			continue
		}
		if _, err := r.sharedModel(info); err == nil {
			warmed++
		}
	}
	r.warm.Store(true)
	return warmed
}

// CacheWarm reports whether WarmCache has completed. An empty registry
// warms trivially; a server that never calls WarmCache never reports warm
// (and should not install the readiness check).
func (r *Registry) CacheWarm() bool { return r.warm.Load() }

// Handler returns the HTTP routes, wrapped in the obs access-log
// middleware and carrying the /debug observability surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/models", s.handleList)
	mux.HandleFunc("/models/", s.handleModel)
	mux.HandleFunc("/healthz", obs.HealthHandler("modelserver"))
	checks := append([]obs.ReadyCheck{{
		Name: "model-cache",
		Check: func() error {
			if !s.Registry.CacheWarm() {
				return errors.New("model cache not warmed")
			}
			return nil
		},
	}}, s.Ready...)
	mux.HandleFunc("/readyz", obs.ReadyHandler("modelserver", checks...))
	obs.Mount(mux)
	return obs.AccessLog("modelserver", s.AccessLog, mux)
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, s.Registry.List())
}

func (s *Server) handleModel(w http.ResponseWriter, req *http.Request) {
	parts := strings.Split(strings.TrimPrefix(req.URL.Path, "/models/"), "/")
	if len(parts) == 0 || parts[0] == "" {
		http.Error(w, "model name required", http.StatusBadRequest)
		return
	}
	name := parts[0]
	switch {
	case req.Method == http.MethodPost && len(parts) == 1:
		s.publish(w, req, name)
	case req.Method == http.MethodPost && len(parts) == 3 && parts[2] == "retire":
		s.retire(w, name, parts[1])
	case req.Method == http.MethodPost && len(parts) == 3 && parts[2] == "score":
		s.score(w, req, name, parts[1])
	case req.Method == http.MethodGet && len(parts) == 2:
		s.fetch(w, name, parts[1])
	case req.Method == http.MethodGet && len(parts) == 3 && parts[2] == "lineage":
		s.lineage(w, name, parts[1])
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) publish(w http.ResponseWriter, req *http.Request, name string) {
	// MaxBytesReader (not LimitReader): an oversized upload must fail as
	// 413, not load a silently truncated model.
	m, err := core.Load(http.MaxBytesReader(w, req.Body, 256<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			obs.C("modelserver.body_too_large").Inc()
			http.Error(w, "model exceeds size limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var parent *ModelInfo
	if p := req.URL.Query().Get("parent"); p != "" {
		pname, pver, ok := parseRef(p)
		if !ok {
			http.Error(w, "bad parent ref, want name@version", http.StatusBadRequest)
			return
		}
		s.Registry.mu.RLock()
		info, found := s.Registry.find(pname, pver)
		s.Registry.mu.RUnlock()
		if !found {
			http.Error(w, "parent not found", http.StatusBadRequest)
			return
		}
		parent = &info
	}
	info, err := s.Registry.Publish(name, m, req.URL.Query().Get("trainedOn"), parent)
	if errors.Is(err, ErrBadName) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, info)
}

// fetch serves a version's blob as read from disk, not the serving cache.
func (s *Server) fetch(w http.ResponseWriter, name, versionStr string) {
	info, err := s.Registry.resolveInfo(name, versionStr)
	var m *core.Model
	if err == nil {
		m, _, err = s.Registry.load(info)
	}
	if err != nil {
		refError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := m.Save(w); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// refError replies to a failed model lookup or load: 404 for a missing
// version, 400 for a bad version string, 500 otherwise.
func refError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, "not found", http.StatusNotFound)
	case errors.Is(err, errBadVersion):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ScoreRequest is the body of a score call: raw spans, which the server
// assembles into traces by trace ID.
type ScoreRequest struct {
	Spans []*trace.Span `json:"spans"`
}

// ScoreResult is the per-trace outcome of a score call.
type ScoreResult struct {
	TraceID string `json:"traceId"`
	// DurScaled and ErrProb are the model's per-span predictions, aligned
	// with the assembled trace's span order.
	DurScaled []float64 `json:"durScaled"`
	ErrProb   []float64 `json:"errProb"`
}

// ScoreResponse is the JSON reply of a score call.
type ScoreResponse struct {
	Results []ScoreResult `json:"results"`
	// MeanLoss is the Eq. 5 reconstruction objective over the scored
	// traces — the anomaly signal inference workers threshold on.
	MeanLoss float64 `json:"meanLoss"`
	// Skipped counts span groups that hold a span trace.Span.Valid rejects
	// or that did not assemble into a trace; they get no result.
	Skipped int `json:"skipped"`
}

// score runs batched inference with the requested model version: spans are
// assembled into traces and scored by one ScoreBatch call on this goroutine
// (one forward per trace yields predictions AND loss). The model itself comes
// from the registry's in-memory cache, not a per-request gob load.
func (s *Server) score(w http.ResponseWriter, req *http.Request, name, versionStr string) {
	start := time.Now()
	// The score latency histogram carries the request's self-trace ID as its
	// bucket exemplar, so a p99 spike on the watch dashboard points straight
	// at a joined span tree.
	defer func() {
		obs.H("modelserver.score_us").ObserveExemplar(
			float64(time.Since(start))/float64(time.Microsecond),
			obs.TraceIDFrom(req.Context()))
	}()
	obs.C("modelserver.score.requests").Inc()
	reqSpan := obs.SpanFrom(req.Context())
	lsp := reqSpan.Child("model.load")
	lsp.Annotate("model.ref", name+"@"+versionStr)
	info, err := s.Registry.resolveInfo(name, versionStr)
	var m *core.Model
	if err == nil {
		m, err = s.Registry.sharedModel(info)
	}
	if err != nil {
		lsp.SetError(true)
	}
	lsp.End()
	if err != nil {
		refError(w, err)
		return
	}
	spans, ok := readSpans(w, req)
	if !ok {
		return
	}
	asp := reqSpan.Child("trace.assemble")
	traces, skipped := trace.AssembleAll(spans)
	asp.Annotate("traces", strconv.Itoa(len(traces)))
	asp.End()
	obs.C("modelserver.score.spans").Add(int64(len(spans)))
	obs.C("modelserver.score.traces").Add(int64(len(traces)))
	obs.C("modelserver.score.skipped").Add(int64(skipped))
	sort.Slice(traces, func(i, j int) bool { return traces[i].TraceID < traces[j].TraceID })
	resp := ScoreResponse{Results: make([]ScoreResult, len(traces)), Skipped: skipped}
	ssp := reqSpan.Child("model.score")
	durs, errs, losses := m.ScoreBatch(traces, 0)
	ssp.Annotate("traces", strconv.Itoa(len(traces)))
	ssp.End()
	for i, tr := range traces {
		resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: durs[i], ErrProb: errs[i]}
	}
	// MeanLoss is the mean of the request's trace losses, summed in
	// sorted-by-TraceID order.
	if len(losses) > 0 {
		total := 0.0
		for _, l := range losses {
			total += l
		}
		resp.MeanLoss = total / float64(len(losses))
	}
	writeJSON(w, resp)
}

// readSpans reads the {"spans":[…]} body of /score (a ScoreRequest)
// through the pooled otel.ReadBody — the body is a request's largest
// allocation, and DecodeSpans keeps no reference to it — and decodes it.
// When it reports false it has written the error response.
func readSpans(w http.ResponseWriter, req *http.Request) ([]*trace.Span, bool) {
	body, err := otel.ReadBody(w, req, 256<<20)
	var spans []*trace.Span
	if err == nil {
		spans, err = otel.DecodeSpans(body.Bytes())
		body.Release()
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		obs.C("modelserver.body_too_large").Inc()
		http.Error(w, "score request exceeds size limit", http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "bad score request: "+err.Error(), http.StatusBadRequest)
	case len(spans) == 0:
		http.Error(w, "no spans", http.StatusBadRequest)
	default:
		return spans, true
	}
	return nil, false
}

func (s *Server) retire(w http.ResponseWriter, name, versionStr string) {
	v, err := strconv.Atoi(versionStr)
	if err != nil {
		http.Error(w, "bad version", http.StatusBadRequest)
		return
	}
	if err := s.Registry.Retire(name, v); errors.Is(err, ErrNotFound) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) lineage(w http.ResponseWriter, name, versionStr string) {
	v, err := strconv.Atoi(versionStr)
	if err != nil {
		http.Error(w, "bad version", http.StatusBadRequest)
		return
	}
	chain, err := s.Registry.Lineage(name, v)
	if errors.Is(err, ErrNotFound) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, chain)
}

// parseRef splits "name@version".
func parseRef(s string) (string, int, bool) {
	i := strings.LastIndexByte(s, '@')
	if i <= 0 {
		return "", 0, false
	}
	v, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, false
	}
	return s[:i], v, true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
