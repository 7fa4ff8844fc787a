package tensor

import "unsafe"

// This file implements the memory-recycling allocation layer of the
// autodiff engine (DESIGN.md §8). A define-by-run tape produces a burst of
// short-lived allocations on every training step — result buffers, Tensor
// headers, shape and parent slices, gradient buffers — all of which are
// garbage the moment the optimizer step completes. An Arena turns that
// churn into bump allocation from recycled chunks: ops draw from the arena
// that governs their inputs, and one Reset() after each step hands every
// buffer back without involving the garbage collector.
//
// Ownership contract:
//
//   - An Arena belongs to exactly one goroutine at a time. Handing it to
//     another goroutine requires a happens-before edge (the data-parallel
//     trainer gets one per batch from par.For, which returns only after
//     every worker goroutine has).
//   - Every tensor allocated from an arena — and every tensor reachable
//     from one through the tape — is dead after Reset(). Copy out anything
//     that must survive (losses via Item, predictions via append) first.
//   - Leaf tensors (parameters, cached inputs) are never arena-backed, so
//     their data and gradients survive Reset; see newOp for how results
//     inherit the arena from their parents.

const (
	// chunkFloats is the bump-chunk size for float64 buffers. One training
	// step over a large trace uses a few hundred KB; chunks are recycled
	// across steps so the steady state allocates nothing.
	chunkFloats = 1 << 15
	// chunkTensors is the Tensor-header slab size.
	chunkTensors = 1 << 9
	// chunkInts / chunkPtrs back shape, index and parent slices.
	chunkInts = 1 << 12
	chunkPtrs = 1 << 11
	// bigClasses bounds the power-of-two size classes of the oversized
	// free list (2^63 covers any addressable request).
	bigClasses = 64
)

// Arena is a recycling allocator for one goroutine's tape. The zero value
// is not usable; create arenas with NewArena. A nil *Arena is valid
// everywhere and means "allocate from the heap" (the pre-arena behavior).
type Arena struct {
	// Bump-allocated chunks, one cursor per element type. Chunks are
	// retained across Reset calls and reused in order.
	floats   [][]float64
	fi, foff int
	tensors  [][]Tensor
	ti, toff int
	ints     [][]int
	ii, ioff int
	ptrs     [][]*Tensor
	pi, poff int

	// Oversized float buffers (> chunkFloats) live on power-of-two free
	// lists: Floats pops (or allocates) a class bucket, Reset returns every
	// handed-out buffer to its class.
	bigFree [bigClasses][][]float64
	bigUsed [bigClasses][][]float64

	// Reusable scratch for Backward's topological sort.
	order []*Tensor
	stack []topoFrame

	// resets counts Reset calls since creation; telemetry reads it to
	// report recycling cadence alongside retained bytes.
	resets int64
}

// NewArena creates an empty arena. Chunks are allocated lazily on first
// use, so idle arenas cost nothing.
func NewArena() *Arena { return &Arena{} }

// Floats returns a zeroed []float64 of length n drawn from the arena.
func (a *Arena) Floats(n int) []float64 {
	if n > chunkFloats {
		return a.bigFloats(n)
	}
	if a.fi >= len(a.floats) {
		a.floats = append(a.floats, make([]float64, chunkFloats))
	}
	if a.foff+n > chunkFloats {
		a.fi++
		a.foff = 0
		if a.fi >= len(a.floats) {
			a.floats = append(a.floats, make([]float64, chunkFloats))
		}
	}
	s := a.floats[a.fi][a.foff : a.foff+n : a.foff+n]
	a.foff += n
	clear(s)
	return s
}

// bigFloats serves oversized requests from per-size-class free lists.
func (a *Arena) bigFloats(n int) []float64 {
	class := sizeClass(n)
	var buf []float64
	if free := a.bigFree[class]; len(free) > 0 {
		buf = free[len(free)-1]
		a.bigFree[class] = free[:len(free)-1]
	} else {
		buf = make([]float64, 1<<class)
	}
	a.bigUsed[class] = append(a.bigUsed[class], buf)
	s := buf[:n:n]
	clear(s)
	return s
}

// sizeClass returns ceil(log2(n)).
func sizeClass(n int) int {
	class := 0
	for 1<<class < n {
		class++
	}
	return class
}

// Ints returns a zeroed []int of length n drawn from the arena.
func (a *Arena) Ints(n int) []int {
	if n > chunkInts {
		// Index slices track tensor shapes and rows; anything beyond the
		// chunk size is exceptional enough to take from the heap.
		return make([]int, n)
	}
	if a.ii >= len(a.ints) {
		a.ints = append(a.ints, make([]int, chunkInts))
	}
	if a.ioff+n > chunkInts {
		a.ii++
		a.ioff = 0
		if a.ii >= len(a.ints) {
			a.ints = append(a.ints, make([]int, chunkInts))
		}
	}
	s := a.ints[a.ii][a.ioff : a.ioff+n : a.ioff+n]
	a.ioff += n
	clear(s)
	return s
}

// ptrSlice returns a zeroed []*Tensor of length n drawn from the arena.
func (a *Arena) ptrSlice(n int) []*Tensor {
	if n > chunkPtrs {
		return make([]*Tensor, n)
	}
	if a.pi >= len(a.ptrs) {
		a.ptrs = append(a.ptrs, make([]*Tensor, chunkPtrs))
	}
	if a.poff+n > chunkPtrs {
		a.pi++
		a.poff = 0
		if a.pi >= len(a.ptrs) {
			a.ptrs = append(a.ptrs, make([]*Tensor, chunkPtrs))
		}
	}
	s := a.ptrs[a.pi][a.poff : a.poff+n : a.poff+n]
	a.poff += n
	clear(s)
	return s
}

// tensor returns a zeroed Tensor header slot tagged with the arena.
func (a *Arena) tensor() *Tensor {
	if a.ti >= len(a.tensors) {
		a.tensors = append(a.tensors, make([]Tensor, chunkTensors))
	}
	if a.toff >= chunkTensors {
		a.ti++
		a.toff = 0
		if a.ti >= len(a.tensors) {
			a.tensors = append(a.tensors, make([]Tensor, chunkTensors))
		}
	}
	t := &a.tensors[a.ti][a.toff]
	a.toff++
	*t = Tensor{arena: a}
	return t
}

// shape copies sh into arena storage (shapes are 1–2 ints; copying keeps
// results independent of caller-owned slices, matching the heap path).
func (a *Arena) shape(sh []int) []int {
	s := a.Ints(len(sh))
	copy(s, sh)
	return s
}

// View returns an arena-tagged alias of t: same data, same shape values,
// no tape history, no gradient. Installing a view of an input tensor at
// the root of a forward pass is what routes every downstream op result
// into the arena. The view dies with the arena's next Reset; t itself is
// untouched.
func (a *Arena) View(t *Tensor) *Tensor {
	if a == nil {
		return t
	}
	v := a.tensor()
	v.Data = t.Data
	v.Shape = a.shape(t.Shape)
	return v
}

// NewIn creates a tensor of the given shape with a zeroed arena-backed
// data buffer. A nil arena falls back to Zeros.
func NewIn(a *Arena, shape ...int) *Tensor {
	if a == nil {
		// Copy before handing to Zeros: Zeros retains its shape slice, and
		// letting the parameter leak would force every caller's variadic
		// slice onto the heap even on the arena path.
		return Zeros(append([]int(nil), shape...)...)
	}
	t := a.tensor()
	t.Data = a.Floats(numel(shape))
	t.Shape = a.shape(shape)
	return t
}

// FullIn creates an arena-backed tensor filled with v (heap when a is nil).
func FullIn(a *Arena, v float64, shape ...int) *Tensor {
	t := NewIn(a, shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// ArenaOf returns the arena governing t, or nil for heap tensors. Callers
// building auxiliary tensors inside an op pipeline (sentinel rows, fallback
// rows) use it to keep those allocations on the same tape arena.
func ArenaOf(t *Tensor) *Arena {
	if t == nil {
		return nil
	}
	return t.arena
}

// Reset recycles every allocation handed out since the previous Reset.
// Chunks, slabs and oversized buffers are all retained for reuse, so a
// steady-state step after warm-up allocates nothing from the heap. All
// tensors drawn from the arena — including views and gradients of
// non-leaf tensors — are invalid after Reset.
func (a *Arena) Reset() {
	a.resets++
	a.fi, a.foff = 0, 0
	a.ti, a.toff = 0, 0
	a.ii, a.ioff = 0, 0
	a.pi, a.poff = 0, 0
	for class := range a.bigUsed {
		if used := a.bigUsed[class]; len(used) > 0 {
			a.bigFree[class] = append(a.bigFree[class], used...)
			a.bigUsed[class] = used[:0]
		}
	}
	// Scratch buffers keep their capacity; clearing the pointers lets the
	// GC reclaim tensors if the arena itself is dropped.
	clear(a.order)
	a.order = a.order[:0]
	for i := range a.stack {
		a.stack[i].t = nil
	}
	a.stack = a.stack[:0]
}

// Footprint reports the total float64 capacity retained by the arena, in
// elements. Exposed for tests and capacity diagnostics.
func (a *Arena) Footprint() int {
	n := len(a.floats) * chunkFloats
	for class := range a.bigFree {
		n += len(a.bigFree[class]) << class
		n += len(a.bigUsed[class]) << class
	}
	return n
}

// Resets reports how many times the arena has been recycled. Zero for a
// nil arena.
func (a *Arena) Resets() int64 {
	if a == nil {
		return 0
	}
	return a.resets
}

// Bytes reports the total heap bytes retained by the arena across every
// chunk pool: float chunks and oversized buffers, Tensor-header slabs, int
// and pointer slices. Zero for a nil arena. Exposed for the training
// loop's memory telemetry.
func (a *Arena) Bytes() int {
	if a == nil {
		return 0
	}
	const tensorSize = int(unsafe.Sizeof(Tensor{}))
	n := a.Footprint() * 8
	n += len(a.tensors) * chunkTensors * tensorSize
	n += len(a.ints) * chunkInts * 8
	n += len(a.ptrs) * chunkPtrs * 8
	return n
}
