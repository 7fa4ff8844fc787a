package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
)

// goldenHashes pins the model's numerics across kernel changes: per
// aggregator, the FNV-64a hash of the float64 bits of (1) the weights of a
// seeded one-epoch Synthetic-64 model, (2) its ScoreBatch outputs on 16
// fixed traces and (3) a six-question CounterfactualSession sequence. The
// constants were computed with the scalar Go matmul kernels, before the
// AVX2 arm existed; a kernel that reorders or fuses any floating-point
// operation moves them.
var goldenHashes = map[Variant]uint64{
	VariantGIN: 0x44d400b9a755a798,
	VariantGCN: 0xa731330b219a518b,
}

func TestNumericGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse x*y+z into one rounding, so their
		// bits legitimately differ from these amd64 constants.
		t.Skip("golden hashes are amd64 constants")
	}
	forVariants(t, func(t *testing.T, v Variant) {
		if got, want := numericDigest(t, v), goldenHashes[v]; got != want {
			t.Fatalf("numeric digest %#x, golden %#x: a kernel changed some result's bits", got, want)
		}
	})
}

func numericDigest(t *testing.T, v Variant) uint64 {
	app := synth.Synthetic(64, 29)
	traces := simTraces(t, app, 29, 40)
	m := NewModel(Config{Variant: v, Seed: 29})
	if _, err := m.Train(traces, TrainOptions{Epochs: 1, Seed: 29}); err != nil {
		t.Fatal(err)
	}
	m.SetNormals(traces)

	h := fnv.New64a()
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, p := range m.Params() {
		put(p.T.Data...)
	}
	dur, errp, losses := m.ScoreBatch(traces[:16], 0)
	for i := range dur {
		put(dur[i]...)
		put(errp[i]...)
	}
	put(losses...)

	// Six questions on one trace: nothing restored, a nested run of growing
	// sets as the localisation loop asks them, then a disjoint set (undo).
	tr := traces[3]
	s := m.NewCounterfactualSession(tr)
	defer s.Close()
	n := tr.Len()
	if n < 4 {
		t.Fatalf("trace has %d spans; the question sequence needs 4", n)
	}
	sets := []map[int]bool{{}, {n - 1: true}, {n - 1: true, n / 2: true},
		{n - 1: true, n / 2: true, 1: true}, {n - 1: true, n / 2: true, 1: true, 0: true}, {2: true}}
	for _, set := range sets {
		cf := s.Counterfactual(set)
		put(cf.RootDurationMicros, cf.RootErrorProb)
	}
	return h.Sum64()
}
