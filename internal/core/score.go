package core

import (
	"math"
	"sync"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// ScoreBatch is the batch scoring entry point: per-span predictions AND the
// per-trace Eq. 5 losses from a single forward pass per trace. Results are
// ordered like the input and bit-equal to a solo forwardLoss on the heap,
// so a trace scores the same whatever batch it is in. The model server's
// /score handler makes one call per request, on its own goroutine.
// The traces fan out on par.For; scoring only reads the shared weights, so
// any number of scoring goroutines can share one model. Each worker scores
// on a warm workspace from scorePool, so steady-state serving allocates
// only the results. A GIN model scores without a tape (see rowScore); an
// aggregator without a row kernel (GCN) runs forwardLoss on the heap.
// The workers argument is deprecated and ignored — GOMAXPROCS sets the
// core count — and stays only until the benchmark, which passes 0, drops
// it (ROADMAP item 1).
func (m *Model) ScoreBatch(traces []*trace.Trace, workers int) (durScaled, errProb [][]float64, losses []float64) {
	batchTimer := obs.H("core.score.batch_us").Start()
	obs.C("core.score.traces").Add(int64(len(traces)))
	durScaled = make([][]float64, len(traces))
	errProb = make([][]float64, len(traces))
	losses = make([]float64, len(traces))
	par.For(len(traces), func(_, i int) {
		ws := scorePool.Get().(*scoreWorkspace)
		durScaled[i], errProb[i], losses[i] = ws.score(m, traces[i])
		scorePool.Put(ws)
	})
	batchTimer.Stop()
	return durScaled, errProb, losses
}

// scoreWorkspace is what one scoring worker reuses from trace to trace: the
// feature encoding EncodeInto refills, the GIN row evaluator Prime refills
// and the per-parent slots of rowScore's Eq. 2 / Eq. 3 pass. A trace's
// pass reads nothing of the previous one — EncodeInto and Prime write every
// cell and rowScore resets its slots — so results are bit-identical to a
// fresh Encode on the heap.
type scoreWorkspace struct {
	enc *features.Encoded
	inc *gnn.GINIncremental

	childSum []float64 // Eq. 2: Σ of the children's contributions
	childMax []float64 // Eq. 3: max of the children's terms, if found
	found    []bool    // some child term compared greater than −Inf
}

// scorePool keeps scoring workspaces warm across ScoreBatch calls. Under
// online serving (many small batches per second) a fresh encoding and
// evaluator per trace would be the bulk of the request's allocation;
// sync.Pool lets the GC reclaim idle workspaces under memory pressure.
var scorePool = sync.Pool{New: func() any { return new(scoreWorkspace) }}

// score encodes tr into the workspace and scores it: the per-span
// predictions and the Eq. 5 loss value, both from one forward pass. The
// workspace goes back holding no trace, so a pooled one pins no request
// data.
func (ws *scoreWorkspace) score(m *Model, tr *trace.Trace) (durScaled, errProb []float64, loss float64) {
	ws.enc = m.encoder.EncodeInto(tr, ws.enc)
	defer func() { ws.enc.Trace = nil }()
	if gin, ok := m.agg.(*gnn.GINSiblingConv); ok {
		if inc := gin.ResetIncremental(ws.inc, ws.enc.Graph()); inc != nil {
			ws.inc = inc
			return ws.rowScore(m)
		}
	}
	pred, l := m.forwardLoss(ws.enc, nil)
	return pred.durScaled.Data, pred.errProb.Data, l.Item()
}

// logFloor is the input floor of the tape's Log and Log10 ops.
const logFloor = 1e-12

// rowScore is forward plus the Eq. 5 loss without a tape, bit for bit: h
// comes from Prime, then one ascending pass adds each child's Eq. 2
// contribution and Eq. 3 term into its parent's slots — the member order
// SegmentSum adds in, and SegmentMax's strict > from −Inf, so a group
// whose terms are all NaN falls back to 0 — and a second pass reads each
// span's d̂ and ê off its slots and sums the loss in span order. Every
// expression keeps the shape the tape ops evaluate; a product that feeds
// a sum — math.Log10 too, which inlines to one — is rounded on its own by
// a float64 conversion, so no architecture fuses it into one FMA (make
// cross-build checks).
func (ws *scoreWorkspace) rowScore(m *Model) (durScaled, errProb []float64, loss float64) {
	x, xStar := ws.enc.Tensors()
	h := ws.inc.Prime(xStar, x)
	parent := ws.enc.Graph().Parent
	n := len(parent)
	xw, sw := x.Cols(), xStar.Cols()
	ws.childSum = resize(ws.childSum, n)
	clear(ws.childSum)
	ws.childMax = resize(ws.childMax, n)
	for i := range ws.childMax {
		ws.childMax[i] = math.Inf(-1)
	}
	ws.found = resize(ws.found, n)
	clear(ws.found)
	for j, p := range parent {
		if p < 0 {
			continue
		}
		hj := h.Data[j*headDim : (j+1)*headDim]
		dScaled, eFlag := x.Data[j*xw], x.Data[j*xw+1]
		dPrime := math.Pow(10, dScaled+features.DurLogMean)
		contrib := dPrime
		if !m.cfg.PlainSum {
			v := math.Pow(10, clampf(hj[1], -2, 8))
			contrib = smoothClippedReLU(dPrime, v*sigmoid(hj[0]), v, float64(dPrime*smoothFrac)+1)
		}
		ws.childSum[p] += contrib
		term := math.Max(eFlag*sigmoid(hj[2]), sigmoid(float64(hj[3]*dScaled)+hj[4]))
		if term > ws.childMax[p] {
			ws.childMax[p] = term
			ws.found[p] = true
		}
	}
	durScaled = make([]float64, n)
	errProb = make([]float64, n)
	var mse, bce float64
	for i := range n {
		dHat := float64(math.Log10(math.Max(ws.childSum[i]+math.Pow(10, xStar.Data[i*sw]+features.DurLogMean), logFloor))) - features.DurLogMean
		childMax := 0.0
		if ws.found[i] {
			childMax = ws.childMax[i]
		}
		eHat := math.Max(childMax, xStar.Data[i*sw+1])
		durScaled[i], errProb[i] = dHat, eHat

		diff := dHat - x.Data[i*xw]
		mse += float64(diff * diff)
		p, t := clampf(eHat, 1e-7, 1-1e-7), x.Data[i*xw+1]
		bce += float64(t*math.Log(math.Max(p, logFloor))) + float64((-t+1)*math.Log(math.Max(-p+1, logFloor)))
	}
	c := 1 / float64(n)
	return durScaled, errProb, float64(mse*c) + -float64(bce*c)
}
