package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkHDBSCAN measures the full clustering pipeline — core distances
// (bounded-heap selection on par.For), serial Prim MST, condense,
// stability selection — plus medoid election, at the incident sizes the
// scale-out work targets. Compare against BenchmarkHDBSCANSerialBaseline;
// labels are identical (TestHDBSCANMatchesSerialReference).
func BenchmarkHDBSCAN(b *testing.B) {
	for _, n := range []int{512, 2048} {
		sets := randomSets(n, uint64(n))
		m := Pairwise(sets)
		opts := DefaultOptions()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				labels := HDBSCAN(m, opts)
				_ = Medoids(m, labels)
			}
		})
	}
}

// BenchmarkHDBSCANSerialBaseline runs the serial references. Prim is the
// same serial scan HDBSCAN ships, and so is the medoid scan, so the two
// differ only in full-sort core distances (O(n² log n)).
func BenchmarkHDBSCANSerialBaseline(b *testing.B) {
	for _, n := range []int{512, 2048} {
		sets := randomSets(n, uint64(n))
		m := Pairwise(sets)
		opts := DefaultOptions()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				labels := hdbscanSerialReference(m, opts)
				_ = medoidsRef(m, labels)
			}
		})
	}
}
