// Package cluster implements the paper's trace clustering stage (§3.3):
// the weighted-span-set trace distance metric (Eq. 1) and density-based
// clustering (HDBSCAN), plus
// geometric-median representative selection. Clustering collapses the
// flood of anomalous traces produced by one incident into a handful of
// failure modes so the expensive GNN inference runs once per mode.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// DefaultMaxAncestors is the d_max ancestor window of the span identifier
// (§3.3.1): identifiers embed the call path up to this many ancestors.
const DefaultMaxAncestors = 3

// Interner maps span-identifier strings to dense int32 IDs. One interner is
// the shared vocabulary of a clustering run: every WeightedSet built against
// it stores IDs instead of strings, so the Distance merge compares ints and
// each identifier string is stored exactly once regardless of how many
// traces contain it. IDs are assigned in first-intern order, so a fixed
// trace order yields a fixed vocabulary. An Interner is not safe for
// concurrent use: TraceSets gives every window a vocabulary of its own, and
// every worker that encodes a trace missing from the cache a private
// scratch Interner.
type Interner struct {
	ids   map[string]int32
	names []string // names[id] is the identifier id stands for

	// tally's scratch, reused across traces: the identifier being built, a
	// weight accumulator indexed by ID (all zero between traces) and the
	// IDs the current trace has touched, in first-span order.
	buf     []byte
	acc     []float64
	touched []int32
}

// NewInterner creates an empty vocabulary.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the ID for s, assigning the next free ID on first sight.
func (in *Interner) Intern(s string) int32 {
	id, ok := in.ids[s]
	if !ok {
		id = int32(len(in.names))
		in.ids[s] = id
		in.names = append(in.names, s)
	}
	return id
}

// Size returns the number of distinct interned identifiers.
func (in *Interner) Size() int {
	return len(in.names)
}

// WeightedSet is the weighted span-set encoding of one trace: interned
// identifiers with their total durations, stored sorted by ID so that
// distance computation is a deterministic two-pointer merge (map iteration
// order would make the last-ulp float sums — and therefore clustering —
// nondeterministic across runs). Sets are only comparable when built
// against the same Interner; Distance enforces this.
//
// Only SetFromMap and TraceSet build a set. They cache its mass (Σ
// weights); Distance uses the cached masses both for its O(1)
// short-circuits and to reconstruct the union term of Eq. 1 without
// accumulating it in the merge.
type WeightedSet struct {
	ids []int32
	w   []float64

	mass  float64
	vocab *Interner
}

// sum adds weights in slice order (the fixed, ID-sorted order every
// constructor stores), so cached masses are reproducible bit-for-bit.
func sum(w []float64) float64 {
	total := 0.0
	for _, v := range w {
		total += v
	}
	return total
}

// SetFromMap builds a WeightedSet from an identifier → weight map, interning
// identifiers into in. Map keys are interned in sorted-string order so a
// fresh interner's ID assignment does not depend on map iteration order.
func SetFromMap(in *Interner, m map[string]float64) WeightedSet {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ids := make([]int32, len(keys))
	for i, k := range keys {
		ids[i] = in.Intern(k)
	}
	// With a pre-populated interner the sorted strings need not yield sorted
	// IDs; order entries by ID for the merge invariant.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ids[idx[a]] < ids[idx[b]] })
	outIDs := make([]int32, len(keys))
	w := make([]float64, len(keys))
	for i, j := range idx {
		outIDs[i] = ids[j]
		w[i] = m[keys[j]]
	}
	return WeightedSet{ids: outIDs, w: w, mass: sum(w), vocab: in}
}

// Len returns the number of distinct identifiers.
func (s WeightedSet) Len() int { return len(s.ids) }

// Mass returns |S| = Σ weights (cached at construction).
func (s WeightedSet) Mass() float64 { return s.mass }

// SpanIdentifier builds the §3.3.1 element identifier for span i of tr: a
// tuple of service name, span name, kind, error status and the names of
// its ancestors within dmax hops.
func SpanIdentifier(tr *trace.Trace, i, dmax int) string {
	return string(appendIdentifier(nil, tr, i, dmax))
}

// appendIdentifier appends span i's identifier to buf.
func appendIdentifier(buf []byte, tr *trace.Trace, i, dmax int) []byte {
	sp := tr.Spans[i]
	buf = append(buf, sp.Service...)
	buf = append(buf, 0x1f)
	buf = append(buf, sp.Name...)
	buf = append(buf, 0x1f)
	buf = append(buf, sp.Kind...)
	if sp.Error {
		buf = append(buf, 0x1f, '1')
	} else {
		buf = append(buf, 0x1f, '0')
	}
	for p := tr.Parent(i); p >= 0 && dmax > 0; p, dmax = tr.Parent(p), dmax-1 {
		buf = append(buf, 0x1f)
		buf = append(buf, tr.Spans[p].Name...)
	}
	return buf
}

// TraceSet encodes a trace as a weighted span set over in's vocabulary.
// Spans sharing an identifier merge with weights summed in span order
// (§3.3.1). Durations are weighted in milliseconds to keep masses in a
// numerically friendly range. Only the two result slices and the map key of
// an identifier new to the vocabulary are allocated.
func TraceSet(in *Interner, tr *trace.Trace, dmax int) WeightedSet {
	in.tally(tr, dmax)
	slices.Sort(in.touched)
	ids := slices.Clone(in.touched)
	w := make([]float64, len(ids))
	for i, id := range ids {
		w[i], in.acc[id] = in.acc[id], 0
	}
	return WeightedSet{ids: ids, w: w, mass: sum(w), vocab: in}
}

// tally is TraceSet's per-span work: it interns every span's identifier and
// adds the span's weight to acc at its ID, in span order, leaving the IDs
// the trace touched in touched in first-span order. The caller reads acc at
// those IDs and zeroes it again.
func (in *Interner) tally(tr *trace.Trace, dmax int) {
	in.touched = in.touched[:0]
	for i, sp := range tr.Spans {
		in.buf = appendIdentifier(in.buf[:0], tr, i, dmax)
		id, ok := in.ids[string(in.buf)]
		if !ok {
			id = in.Intern(string(in.buf))
		}
		for int(id) >= len(in.acc) {
			in.acc = append(in.acc, 0)
		}
		// Weights are positive, so a zero cell is one this trace has not
		// touched yet.
		if in.acc[id] == 0 {
			in.touched = append(in.touched, id)
		}
		in.acc[id] += max(float64(sp.Duration())/1000.0, 0.001)
	}
}

// mixedVocabularies is the panic of comparing sets built against different
// Interners, from Distance on a pair and from Pairwise on a batch.
const mixedVocabularies = "cluster: Distance across sets from different Interner vocabularies"

// Distance computes the extended weighted Jaccard distance of Eq. 1:
//
//	d(A,B) = 1 - Σ min(w_A, w_B) / Σ max(w_A, w_B)
//
// It is 0 for identical sets, 1 for disjoint sets, and more sensitive to
// high-duration spans because they dominate both sums. Complexity is
// O(|A| + |B|), and the merge compares interned int32 IDs rather than
// identifier strings. Both sets must come from the same Interner — IDs from
// different vocabularies name different identifiers, so comparing them would
// silently return garbage; Distance panics instead.
//
// The cached masses drive two optimisations. First, the mass bound
// Σmin ≤ min(|A|,|B|) gives d ≥ 1 − min(|A|,|B|)/max(|A|,|B|); when the
// bound alone decides the value — one mass is zero (bound says d ≥ 1, and
// d ≤ 1 always) or the ID ranges cannot overlap (Σmin is exactly 0) — the
// merge is skipped outright and the exact value returned. Second, the
// identity Σmax = |A| + |B| − Σmin lets the merge accumulate only the
// intersection term: non-matching elements cost a bare ID compare, and the
// loop stops the moment either set is exhausted instead of draining the
// other's tail.
func Distance(a, b WeightedSet) float64 {
	if a.vocab != b.vocab && a.vocab != nil && b.vocab != nil {
		panic(mixedVocabularies)
	}
	la, lb := len(a.ids), len(b.ids)
	ma, mb := a.mass, b.mass
	switch {
	case ma == 0 && mb == 0:
		// Union mass is zero: identical up to weightless elements.
		return 0
	case ma == 0 || mb == 0:
		// Mass bound decides: Σmin ≤ min(|A|,|B|) = 0 while Σmax > 0.
		return 1
	case a.ids[la-1] < b.ids[0] || b.ids[lb-1] < a.ids[0]:
		// Disjoint ID ranges: Σmin is exactly 0, so d = 1.
		return 1
	}
	interMin := 0.0
	i, j := 0, 0
	for i < la && j < lb {
		ai, bj := a.ids[i], b.ids[j]
		switch {
		case ai == bj:
			if wa, wb := a.w[i], b.w[j]; wa < wb {
				interMin += wa
			} else {
				interMin += wb
			}
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return jaccard(ma, mb, interMin)
}

// jaccard finishes Eq. 1 from the two masses and the intersection term,
// through the identity Σmax = |A| + |B| − Σmin; Distance and Pairwise share
// it so their cells cannot drift apart.
func jaccard(ma, mb, interMin float64) float64 {
	union := ma + mb - interMin
	if union <= 0 {
		return 0
	}
	if d := 1 - interMin/union; d > 0 {
		return d
	}
	return 0
}

// Pairwise computes the full distance matrix over trace sets in parallel,
// every cell bit-identical to Distance(sets[i], sets[j]).
//
// It does not merge pairs. One index over the batch (buildPostings) lists,
// per identifier, the sets that hold it; row i then visits only the
// (identifier, j) matches it has with later sets, accumulating Σmin straight
// into the packed matrix row, and a second pass over the row applies Eq. 1.
// Cost follows matches, not |A|+|B| per pair — identifiers the two sets do
// not share cost nothing — and degenerates to the merge's cost only when all
// sets are identical. Identifiers common enough to carry most matches are
// laid out as dense columns instead, which a row adds four cells at a time
// (tensor.AddMin). Sets from different vocabularies panic as Distance does.
//
// Only the upper triangle is computed and stored, so row i costs about
// n-i-1 cells: handing out bare rows would leave the tail workers idle while
// whoever drew row 0 finishes. Work items therefore pair row i with its
// mirror row n-1-i, which makes per-item cost near-uniform.
func Pairwise(sets []WeightedSet) *Matrix {
	n := len(sets)
	timer := obs.H("cluster.pairwise_us").Start()
	defer timer.Stop()
	obs.C("cluster.pairwise_calls").Inc()
	distances := int64(n) * int64(n-1) / 2
	obs.C("cluster.distances").Add(distances)
	if rateSeries := obs.S("cluster.pairwise.distances_per_sec"); rateSeries != nil && distances > 0 {
		start := time.Now()
		defer func() {
			if sec := time.Since(start).Seconds(); sec > 0 {
				rateSeries.Append(float64(distances) / sec)
			}
		}()
	}
	m := NewMatrix(n)
	obs.S("cluster.matrix_bytes").Append(float64(m.Bytes()))
	ix := buildPostings(sets)
	par.For((n+1)/2, func(_, i int) {
		ix.fillRow(sets, i, m.row(i))
		if mirror := n - 1 - i; mirror != i {
			ix.fillRow(sets, mirror, m.row(mirror))
		}
	})
	return m
}

// buildPostings lays out as a dense column every identifier that at least
// 1/denseShare of the batch's sets hold. In BenchmarkPairwise's batch of
// 480 Synthetic-256 traces, the 382 of 1 217 identifiers a quarter of the
// sets hold carry 7.2 M of the 7.6 M (identifier, pair) matches; a
// threshold of an eighth was no faster, and a sixteenth was slower.
const denseShare = 4

// postings is Pairwise's index over the batch. An identifier that at least
// 1/denseShare of the sets hold, with no weight below zero (nor NaN), is a
// dense column: col[id] = k ≥ 0, and cols[k*n+j] is set j's weight, 0 where
// set j lacks it. Every other identifier has col[id] = -1 and a posting
// list in CSR form: its entries — one (set index, weight) per set holding
// it, ascending by set index because sets are filed in order — end at
// end[id].
type postings struct {
	end  []int32
	set  []int32
	w    []float64
	col  []int32
	cols []float64
}

func buildPostings(sets []WeightedSet) postings {
	var vocab *Interner
	size := 0
	for _, s := range sets {
		if s.vocab != nil {
			if vocab != nil && s.vocab != vocab {
				panic(mixedVocabularies)
			}
			vocab = s.vocab
		}
		if k := len(s.ids); k > 0 {
			size = max(size, int(s.ids[k-1])+1)
		}
	}
	n := len(sets)
	byID := make([]int32, 2*size)
	ix := postings{end: byID[:size], col: byID[size:]}
	// Count every identifier's sets into end, and mark in col (-1) the
	// identifiers holding a weight a dense column cannot take.
	for _, s := range sets {
		for k, id := range s.ids {
			ix.end[id]++
			if !(s.w[k] >= 0) {
				ix.col[id] = -1
			}
		}
	}
	dense, total := int32(0), int32(0)
	for id, c := range ix.end {
		if ix.col[id] == 0 && int(c)*denseShare >= n {
			ix.col[id], ix.end[id] = dense, 0
			dense++
			continue
		}
		ix.col[id] = -1
		ix.end[id], total = total, total+c
	}
	ix.set, ix.w = make([]int32, total), make([]float64, total)
	if dense > 0 {
		ix.cols = make([]float64, int(dense)*n)
	}
	// end[id] is a sparse id's begin here and its fill cursor below, which
	// leaves it one past id's last entry.
	for i, s := range sets {
		for k, id := range s.ids {
			if d := ix.col[id]; d >= 0 {
				ix.cols[int(d)*n+i] = s.w[k]
				continue
			}
			p := ix.end[id]
			ix.set[p], ix.w[p] = int32(i), s.w[k]
			ix.end[id] = p + 1
		}
	}
	return ix
}

// fillRow computes cells (i, i+1..n-1) into row, which arrives zeroed. Set i
// is walked in ascending ID order, a dense identifier adding its column to
// the whole row and a sparse one walking its posting list back from its end
// to set i's own entry, so a cell receives its min terms in ascending ID
// order — the order Distance's merge adds them — and the sums agree bit for
// bit.
func (ix postings) fillRow(sets []WeightedSet, i int, row []float64) {
	a, n := sets[i], len(sets)
	set, w := ix.set, ix.w
	for k, id := range a.ids {
		wa := a.w[k]
		if d := int(ix.col[id]); d >= 0 {
			// AddMin picks with Distance's compare, wa < v ? wa : v. wa
			// is one of the column's weights, so wa ≥ 0, and a cell whose
			// set lacks the identifier adds +0, which leaves every sum
			// unchanged: a sum that starts at +0 is never −0.
			tensor.AddMin(row, ix.cols[d*n+i+1:(d+1)*n], wa)
			continue
		}
		for p := ix.end[id] - 1; ; p-- {
			c := int(set[p]) - i - 1
			if c < 0 {
				break
			}
			// min differs from Distance's compare only on NaN and on two
			// zeros. Either zero leaves the sum's bits alone, and a NaN
			// weight makes its set's mass NaN, for which Eq. 1 is 0
			// whatever Σmin is.
			row[c] += min(wa, w[p])
		}
	}
	for c := range row {
		b := &sets[i+1+c]
		switch {
		case a.mass == 0 && b.mass == 0:
			row[c] = 0
		case a.mass == 0 || b.mass == 0:
			row[c] = 1
		case !(a.mass+b.mass > 0) && (a.ids[len(a.ids)-1] < b.ids[0] || b.ids[len(b.ids)-1] < a.ids[0]):
			// Distance's disjoint-range shortcut. Elsewhere a pair that
			// shares no identifier gets the same 1 from Eq. 1, whose
			// union is then ma + mb; only a union that is not positive
			// (negative or NaN weights) would give 0 instead.
			row[c] = 1
		default:
			row[c] = jaccard(a.mass, b.mass, row[c])
		}
	}
}

// Medoids returns, for every cluster label (≥ 0), the index of its
// geometric median: the member minimising the sum of distances to all
// other members (§3.3.2's cluster representative). Clusters are scored in
// parallel — large ones split across members too — with the same
// tie-breaking as a serial scan (lowest member index wins), so the result
// is identical for any worker count.
func Medoids(m *Matrix, labels []int) map[int]int {
	timer := obs.H("cluster.medoids_us").Start()
	defer timer.Stop()
	obs.C("cluster.medoids_calls").Inc()
	return medoids(m, labels)
}

// Summary renders cluster sizes for logs.
func Summary(labels []int) string {
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var parts []string
	for _, k := range keys {
		name := fmt.Sprintf("c%d", k)
		if k < 0 {
			name = "noise"
		}
		parts = append(parts, fmt.Sprintf("%s=%d", name, counts[k]))
	}
	return strings.Join(parts, " ")
}
