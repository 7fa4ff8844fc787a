package alert

import (
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestAlertSteadyStateAllocs gates the watchdog's hot paths for `make
// alloc`: a nil (disabled) engine's Tick is free, and an enabled engine's
// steady-state tick — threshold, both burn-rate modes and a frozen drift
// rule all evaluating — allocates nothing once warm.
func TestAlertSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}

	var nilEngine *Engine
	if got := testing.AllocsPerRun(200, func() { nilEngine.Tick(base) }); got != 0 {
		t.Errorf("disabled watchdog Tick: %v allocs/op, want 0", got)
	}

	rules := []Rule{
		{Name: "thr", Kind: KindThreshold, Series: "s",
			Window: Duration(time.Hour), Agg: AggMean, Op: OpGT, Value: 1e9},
		burnRule(), // value mode over lat.p99
		{Name: "ratio", Kind: KindBurnRate,
			NumSeries: "n", DenSeries: "d", Target: 0.99,
			ShortWindow: Duration(5 * time.Minute), LongWindow: Duration(time.Hour)},
		{Name: "drift", Kind: KindDrift, Series: "s", RefMin: 32, MaxPSI: 10, MaxKS: 0},
	}
	reg, e := newEngine(t, rules...)
	for _, name := range []string{"s", "lat.p99", "n", "d"} {
		series := reg.Series(name)
		for i := 0; i < 64; i++ {
			series.AppendAt(at(time.Duration(64-i)*30*time.Second), float64(i))
		}
	}
	// Warm-up: the first tick resolves series handles and freezes the
	// drift reference; post-freeze samples then give the drift rule a live
	// window so the PSI/KS path runs every tick (MaxPSI=10 keeps it
	// inactive). After the warm ticks every rule holds its state at the
	// pinned clock — the steady regime the gate measures.
	e.Tick(base)
	s := reg.Series("s")
	for i := 0; i < 16; i++ {
		s.AppendAt(base.Add(time.Duration(i-20)*time.Second).UnixNano(), float64(i))
	}
	for i := 0; i < 3; i++ {
		e.Tick(base)
	}
	if got := testing.AllocsPerRun(200, func() { e.Tick(base) }); got != 0 {
		t.Errorf("enabled watchdog steady-state Tick: %v allocs/op, want 0", got)
	}
}
