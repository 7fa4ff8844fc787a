package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("faults")
	// Consuming randomness from the parent must not change the child stream.
	parent2 := New(7)
	for i := 0; i < 100; i++ {
		parent2.Uint64()
	}
	c2 := parent2.Split("faults")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split stream depends on parent consumption at step %d", i)
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	parent := New(7)
	a := parent.Split("a")
	b := parent.Split("b")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different split labels produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of range: %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalPositiveAndHeavyTailed(t *testing.T) {
	r := New(17)
	const n = 50000
	max, sum := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.LogNormal(0, 1.5)
		if v <= 0 {
			t.Fatalf("log-normal sample not positive: %v", v)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / n
	// Heavy tail: max should dwarf the mean by a large factor.
	if max/mean < 20 {
		t.Fatalf("log-normal tail too light: max/mean = %v", max/mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(29)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(37)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := New(41)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[r.WeightedChoice([]float64{0, 0, 0})] = true
	}
	if len(seen) < 2 {
		t.Fatal("all-zero weights did not fall back to uniform choice")
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(43)
	z := r.NewZipf(100, 1.2)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50]*5 {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
}

func TestShuffle(t *testing.T) {
	r := New(47)
	v := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	seen := make([]bool, 10)
	for _, x := range v {
		seen[x] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(0, 1.5)
	}
}
