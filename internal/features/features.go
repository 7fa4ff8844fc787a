// Package features implements the trace feature-engineering pipeline of
// §3.2: text normalisation and semantic embedding of service/operation
// names, logarithmic duration scaling with the paper's global
// standardisation constants, and span-to-vector encoding for the GNN.
//
// The paper embeds names with a pre-trained sentence-BERT model; offline
// and stdlib-only, we substitute a deterministic hashed character-n-gram
// embedding. It preserves the properties the model relies on: identical
// names map to identical vectors (shared through a registry, the paper's
// storage optimisation), lexically similar names map to nearby vectors, and
// the dimensionality is fixed regardless of the application.
package features

import (
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"unicode"

	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Duration-scaling constants from §3.2.2: durations are log10-transformed
// and standardised with a global mean of 4.0 and standard deviation of 1.0
// so one model applies to every dataset without rescaling.
const (
	DurLogMean = 4.0
	DurLogStd  = 1.0
)

// ScaleDuration maps a duration in microseconds to the model's scaled
// space: (log10(d) - 4) / 1. Non-positive durations clamp to 1µs.
func ScaleDuration(micros int64) float64 {
	d := float64(micros)
	if d < 1 {
		d = 1
	}
	return (math.Log10(d) - DurLogMean) / DurLogStd
}

// UnscaleDuration inverts ScaleDuration: 10^(σ·v + µ).
func UnscaleDuration(v float64) float64 {
	return math.Pow(10, v*DurLogStd+DurLogMean)
}

// NormalizeName pre-processes a service or operation name per §3.2.2:
// camel-case words are separated, long hexadecimal digit runs are replaced
// with a placeholder, special characters become spaces, and everything is
// lower-cased.
func NormalizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 8)
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsUpper(r):
			if i > 0 && (unicode.IsLower(runes[i-1]) || unicode.IsDigit(runes[i-1])) {
				b.WriteByte(' ')
			}
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	words := strings.Fields(b.String())
	for i, w := range words {
		if isLongHex(w) {
			words[i] = "hexid"
		}
	}
	return strings.Join(words, " ")
}

// isLongHex reports whether w is a hexadecimal token of at least 8 digits —
// the shape of trace IDs, UUID fragments and object hashes.
func isLongHex(w string) bool {
	if len(w) < 8 {
		return false
	}
	for _, r := range w {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Embedder converts normalised text to fixed-size semantic vectors. It is
// safe for concurrent use. Identical inputs share one cached vector — the
// registry indirection the paper uses to avoid storing per-span embeddings.
type Embedder struct {
	dim int

	mu       sync.RWMutex
	registry map[string][]float64
	// spanCache maps (service, name, kind) directly to the embedding of the
	// span's composed text, so the per-span hot path (EmbedSpan) skips both
	// the string concatenation and the normalisation once an operation has
	// been seen.
	spanCache map[spanKey][]float64
}

// spanKey identifies a span operation without building the composed text.
type spanKey struct {
	service, name string
	kind          trace.Kind
}

// DefaultEmbeddingDim is the embedding width used by the shipped models.
// The paper uses 768-d sentence-BERT vectors; 32 hashed-n-gram dimensions
// carry enough lexical signal for the span vocabulary sizes involved while
// keeping CPU training fast.
const DefaultEmbeddingDim = 32

// NewEmbedder creates an Embedder producing dim-dimensional vectors.
func NewEmbedder(dim int) *Embedder {
	if dim <= 0 {
		panic("features: embedding dim must be positive")
	}
	return &Embedder{
		dim:       dim,
		registry:  make(map[string][]float64),
		spanCache: make(map[spanKey][]float64),
	}
}

// Dim returns the embedding width.
func (e *Embedder) Dim() int { return e.dim }

// RegistrySize returns the number of distinct cached texts.
func (e *Embedder) RegistrySize() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.registry)
}

// Embed returns the embedding vector for text. The returned slice is shared
// and must not be modified.
func (e *Embedder) Embed(text string) []float64 {
	e.mu.RLock()
	v, ok := e.registry[text]
	e.mu.RUnlock()
	if ok {
		return v
	}
	v = e.compute(text)
	e.mu.Lock()
	if existing, ok := e.registry[text]; ok {
		v = existing
	} else {
		e.registry[text] = v
	}
	e.mu.Unlock()
	return v
}

// EmbedSpan returns the embedding of a span's composed text (service, name,
// kind — see spanText). Cache hits allocate nothing: the struct key avoids
// the concatenation Embed's string key would force on every span. The
// returned slice is shared and must not be modified.
func (e *Embedder) EmbedSpan(s *trace.Span) []float64 {
	k := spanKey{service: s.Service, name: s.Name, kind: s.Kind}
	e.mu.RLock()
	v, ok := e.spanCache[k]
	e.mu.RUnlock()
	if ok {
		return v
	}
	v = e.Embed(spanText(s))
	e.mu.Lock()
	e.spanCache[k] = v
	e.mu.Unlock()
	return v
}

// compute builds the hashed-n-gram embedding: word unigrams plus character
// trigrams of the normalised text are hashed into the vector with ±1 signs,
// then L2-normalised.
func (e *Embedder) compute(text string) []float64 {
	norm := NormalizeName(text)
	v := make([]float64, e.dim)
	add := func(feature string, weight float64) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(feature))
		sum := h.Sum64()
		idx := int(sum % uint64(e.dim))
		sign := 1.0
		if (sum>>32)&1 == 1 {
			sign = -1
		}
		v[idx] += sign * weight
	}
	for _, w := range strings.Fields(norm) {
		add("w:"+w, 1.0)
		padded := "^" + w + "$"
		for i := 0; i+3 <= len(padded); i++ {
			add("t:"+padded[i:i+3], 0.5)
		}
	}
	normL2 := 0.0
	for _, x := range v {
		normL2 += x * x
	}
	if normL2 > 0 {
		inv := 1 / math.Sqrt(normL2)
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// Cosine returns the cosine similarity of two equal-length vectors.
func Cosine(a, b []float64) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Encoded is the tensor-ready encoding of one trace: per-span node
// attributes x (scaled duration, error flag, name embedding), exclusive
// attributes x*, and the parent pointers defining the causal DAG.
type Encoded struct {
	Trace   *trace.Trace
	Parents []int
	// X rows: [scaledDuration, error, embedding...]. All rows are
	// subslices of one backing array (see Encode), so materialising the
	// matrix as a tensor is a zero-copy wrap.
	X [][]float64
	// XStar rows: [scaledExclusiveDuration, exclusiveError, embedding...]
	XStar [][]float64

	// xFlat/xsFlat are the contiguous backings of X/XStar.
	xFlat, xsFlat []float64

	// Tensor views over the backings, built once on first use. Encodings
	// are immutable after Encode (bar one a counterfactual session made for
	// itself), so the views are shared by every training epoch and scoring
	// pass over this trace.
	tensorsOnce sync.Once
	xT, xsT     *tensor.Tensor

	// Graph structure derived from Parents, built once on first use — the
	// sibling groups and gather indexes are per-trace constants.
	graphOnce sync.Once
	graph     *gnn.Graph
}

// Graph returns the cached gnn.Graph over the trace's parent pointers. The
// graph's derived indexes (sibling groups, parent-gather arrays, group
// counts) are computed once and shared across every epoch and scoring pass.
func (e *Encoded) Graph() *gnn.Graph {
	e.graphOnce.Do(func() { e.graph = gnn.NewGraph(e.Parents) })
	return e.graph
}

// Tensors returns cached [n, dim] tensor views of X and XStar, wrapping the
// contiguous encoding without copying. The tensors alias X and XStar and
// are shared with every reader of this encoding, so they are read-only to
// all but an encoding's sole owner: a counterfactual session intervenes
// in place on the fresh encoding it made for itself.
func (e *Encoded) Tensors() (x, xStar *tensor.Tensor) {
	e.tensorsOnce.Do(func() {
		n := len(e.X)
		e.xT = tensor.New(e.xFlat, n, len(e.xFlat)/n)
		e.xsT = tensor.New(e.xsFlat, n, len(e.xsFlat)/n)
	})
	return e.xT, e.xsT
}

// NodeDim returns the width of the X rows.
func (e *Encoded) NodeDim() int {
	if len(e.X) == 0 {
		return 0
	}
	return len(e.X[0])
}

// Encoder turns assembled traces into Encoded feature sets.
type Encoder struct {
	Emb *Embedder
}

// NewEncoder creates an Encoder with the given embedder.
func NewEncoder(emb *Embedder) *Encoder { return &Encoder{Emb: emb} }

// spanText builds the text embedded for a span: service, operation name
// and kind, which the paper found carries transferable semantics.
func spanText(s *trace.Span) string {
	return s.Service + " " + s.Name + " " + string(s.Kind)
}

// Encode produces the feature encoding of tr. Rows of X and XStar are
// carved from two contiguous backing arrays — six allocations per trace
// regardless of span count, and a layout Tensors can wrap without copying.
func (enc *Encoder) Encode(tr *trace.Trace) *Encoded {
	n := tr.Len()
	dim := 2 + enc.Emb.Dim()
	e := &Encoded{
		Trace:   tr,
		Parents: make([]int, n),
		X:       make([][]float64, n),
		XStar:   make([][]float64, n),
		xFlat:   make([]float64, n*dim),
		xsFlat:  make([]float64, n*dim),
	}
	for i, s := range tr.Spans {
		e.Parents[i] = tr.Parent(i)
		emb := enc.Emb.EmbedSpan(s)
		x := e.xFlat[i*dim : (i+1)*dim : (i+1)*dim]
		x[0] = ScaleDuration(s.Duration())
		if s.Error {
			x[1] = 1
		}
		copy(x[2:], emb)
		e.X[i] = x

		xs := e.xsFlat[i*dim : (i+1)*dim : (i+1)*dim]
		xs[0] = ScaleDuration(tr.ExclusiveDuration(i))
		if tr.ExclusiveError(i) {
			xs[1] = 1
		}
		copy(xs[2:], emb)
		e.XStar[i] = xs
	}
	return e
}

// EncodeAll encodes a batch of traces.
func (enc *Encoder) EncodeAll(trs []*trace.Trace) []*Encoded {
	out := make([]*Encoded, len(trs))
	for i, tr := range trs {
		out[i] = enc.Encode(tr)
	}
	return out
}
