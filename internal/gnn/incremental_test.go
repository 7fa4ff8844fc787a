package gnn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// TestPrimeMatchesTapeForward is Prime's independent reference: the
// tape-free batched pass must reproduce the tape Forward's output and
// SegmentSum's group sums bit for bit, on shapes from a single node to
// Synthetic-256 traces. The references run on a fresh NewGraph each time;
// Prime runs on one recycled Graph and one recycled evaluator, which also
// checks that Reset and ResetIncremental leave nothing behind as their
// buffers grow and shrink.
func TestPrimeMatchesTapeForward(t *testing.T) {
	const dim = 10
	rng := xrand.New(41)
	conv := NewGINSiblingConv("prime", dim, dim, 24, 5, rng)
	conv.Eps.Data[0] = 0.37 // (1+ε) must not be the identity

	type shape struct {
		name    string
		parents []int
	}
	chain := make([]int, 64)
	fan := make([]int, 200)
	for i := range chain {
		chain[i], fan[i] = i-1, 0
	}
	fan[0] = -1
	shapes := []shape{
		{"single", []int{-1}},
		{"roots", []int{-1, -1, -1, -1, -1, -1}},
		{"chain", chain},
		{"fanout", fan},
	}
	for f := 0; f < 8; f++ {
		n := 1 + rng.Intn(120)
		parents := make([]int, n)
		for i := range parents {
			parents[i] = -1
			if i > 0 && rng.Float64() > 0.1 {
				parents[i] = rng.Intn(i)
			}
		}
		// Relabel every other forest so parents may follow their children.
		if f%2 == 1 {
			perm := rng.Perm(n)
			shuffled := make([]int, n)
			for i, p := range parents {
				shuffled[perm[i]] = -1
				if p >= 0 {
					shuffled[perm[i]] = perm[p]
				}
			}
			parents = shuffled
		}
		shapes = append(shapes, shape{fmt.Sprintf("forest-%d", f), parents})
	}
	results, err := sim.New(synth.Synthetic(256, 43), sim.DefaultOptions(43)).Run(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k, tr := range sim.Traces(results) {
		parents := make([]int, tr.Len())
		for i := range parents {
			parents[i] = tr.Parent(i)
		}
		shapes = append(shapes, shape{fmt.Sprintf("synthetic-256-%d", k), parents})
	}

	var recycled Graph
	var inc *GINIncremental
	for _, sh := range shapes {
		ref := NewGraph(sh.parents)
		n := ref.N()
		x, xStar := sparseRows(rng, n, dim), sparseRows(rng, n, dim)
		want := conv.Forward(ref, xStar, x)
		wantSums := tensor.SegmentSum(x, ref.group, ref.nGroups)

		g := recycled.Reset(sh.parents)
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("%s: recycled graph differs from NewGraph", sh.name)
		}
		inc = conv.ResetIncremental(inc, g)
		got := inc.Prime(xStar, x)
		if !reflect.DeepEqual(got.Shape, want.Shape) {
			t.Fatalf("%s: Prime shape %v, Forward %v", sh.name, got.Shape, want.Shape)
		}
		sameBits(t, sh.name+" h", got.Data, want.Data)
		sameBits(t, sh.name+" group sums", inc.groupSum, wantSums.Data)
	}
}

// sparseRows draws an [n, dim] feature matrix shaped like an encoding:
// a {0,1} flag column and about a third of the other cells exactly zero,
// so the matmul kernel's zero-skip paths run as they do on real traces.
func sparseRows(rng *xrand.Rand, n, dim int) *tensor.Tensor {
	t := tensor.Zeros(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			switch {
			case j == 1:
				if rng.Bernoulli(0.2) {
					t.Data[i*dim+j] = 1
				}
			case rng.Float64() < 0.35:
			default:
				t.Data[i*dim+j] = rng.Normal(0, 1)
			}
		}
	}
	return t
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
