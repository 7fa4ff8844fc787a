package par

import (
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestFor checks the fan-out contract at GOMAXPROCS 1, 2 and 8: every
// index runs exactly once, every call's w is below Workers(n), and with
// one worker the calls run in index order. Each worker also bumps its own
// counter unlocked, the way callers use per-worker scratch: under -race,
// two goroutines sharing a w would be reported.
func TestFor(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			workers := Workers(n)
			if want := max(1, min(procs, n)); workers != want {
				t.Fatalf("GOMAXPROCS=%d: Workers(%d) = %d, want %d", procs, n, workers, want)
			}
			var mu sync.Mutex
			var order []int
			runs := make([]int, n)
			perWorker := make([]int, workers)
			For(n, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran on worker %d of %d", procs, n, i, w, workers)
					return
				}
				perWorker[w]++
				mu.Lock()
				runs[i]++
				order = append(order, i)
				mu.Unlock()
			})
			for i, r := range runs {
				if r != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, r)
				}
			}
			if workers == 1 {
				for k, i := range order {
					if i != k {
						t.Fatalf("GOMAXPROCS=%d n=%d: call %d was index %d, want index order", procs, n, k, i)
					}
				}
			}
		}
	}
}
