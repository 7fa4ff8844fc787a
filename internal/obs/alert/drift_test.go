package alert

import (
	"math"
	"slices"
	"testing"
	"time"
)

// ramp returns n evenly spaced values in [lo, hi).
func ramp(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}

func TestFreezeReferenceEqualFrequencyBins(t *testing.T) {
	ref := freezeReference(ramp(100, 0, 100))
	if len(ref.edges) != psiBins-1 || len(ref.prop) != psiBins {
		t.Fatalf("edge/prop sizes: %d/%d", len(ref.edges), len(ref.prop))
	}
	if !slices.IsSorted(ref.edges) {
		t.Errorf("edges not sorted: %v", ref.edges)
	}
	// Equal-frequency deciles over a uniform ramp: every bin holds ~10%.
	for i, p := range ref.prop {
		if math.Abs(p-0.1) > 0.02 {
			t.Errorf("bin %d proportion %g, want ≈ 0.1", i, p)
		}
	}
}

func TestPSISameDistributionIsSmall(t *testing.T) {
	ref := freezeReference(ramp(200, 0, 100))
	live := ramp(173, 0, 100) // same distribution, different sample count
	var scratch [psiBins]int
	if psi := ref.psi(live, &scratch); psi > 0.05 {
		t.Errorf("identical distributions: psi = %g, want ≤ 0.05", psi)
	}
}

func TestPSIShiftedDistributionIsLarge(t *testing.T) {
	ref := freezeReference(ramp(200, 0, 100))
	live := ramp(100, 200, 300) // fully shifted out of the reference support
	var scratch [psiBins]int
	if psi := ref.psi(live, &scratch); psi < 0.25 {
		t.Errorf("shifted distribution: psi = %g, want > 0.25 (action bound)", psi)
	}
	// A partial shift lands in between — PSI is monotone in the shift.
	partial := ramp(100, 50, 150)
	if psi := ref.psi(partial, &scratch); psi <= 0.0 {
		t.Errorf("partial shift: psi = %g, want > 0", psi)
	}
}

func TestKSStatistic(t *testing.T) {
	ref := freezeReference(ramp(200, 0, 100))
	var scratch [psiBins]int
	_ = scratch

	same := ramp(150, 0, 100) // ramp is ascending → already sorted
	if ks := ref.ks(same); ks > 0.1 {
		t.Errorf("identical distributions: ks = %g, want ≈ 0", ks)
	}
	disjoint := ramp(50, 500, 600)
	if ks := ref.ks(disjoint); ks < 0.999 {
		t.Errorf("disjoint distributions: ks = %g, want ≈ 1", ks)
	}
	half := ramp(100, 50, 150) // half the mass beyond the reference
	ks := ref.ks(half)
	if ks <= 0.2 || ks >= 1 {
		t.Errorf("half-shifted distribution: ks = %g, want in (0.2, 1)", ks)
	}
}

func TestKSHandlesTies(t *testing.T) {
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Identical constant samples: both CDFs jump together at the single
	// tie block, so the statistic must be exactly 0 — a mid-tie-block
	// sweep would report 1.0 and fire a guaranteed false positive.
	ref := freezeReference(constant(64, 5))
	if ks := ref.ks(constant(12, 5)); ks != 0 {
		t.Errorf("identical constant samples: ks = %g, want 0", ks)
	}
	// Identically distributed discrete samples at different sizes: the
	// CDFs agree at every tie-block boundary, so still exactly 0.
	discrete := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i % 3)
		}
		slices.Sort(out)
		return out
	}
	ref = freezeReference(discrete(60))
	if ks := ref.ks(discrete(12)); ks != 0 {
		t.Errorf("identical discrete samples: ks = %g, want 0", ks)
	}
	// Tie handling must not blunt real drift: disjoint constants remain
	// maximally distinguishable.
	ref = freezeReference(constant(64, 5))
	if ks := ref.ks(constant(12, 7)); ks != 1 {
		t.Errorf("disjoint constant samples: ks = %g, want 1", ks)
	}
}

func TestDriftRuleLifecycle(t *testing.T) {
	rule := Rule{
		Name: "drift", Kind: KindDrift, Series: "score",
		Window: Duration(10 * time.Minute),
		RefMin: 32, MaxPSI: 0.25, MaxKS: 0.3,
	}
	reg, e := newEngine(t, rule)
	s := reg.Series("score")

	// Below RefMin: nothing freezes, rule stays inactive.
	for i := 0; i < 16; i++ {
		s.AppendAt(at(time.Duration(40-i)*time.Minute), float64(i%10))
	}
	e.Tick(base.Add(-30 * time.Minute))
	if a := alertFor(t, e, "drift"); a.State != StateInactive {
		t.Fatalf("below RefMin: state %s", a.State)
	}

	// Enough history: the next tick freezes the reference (still inactive —
	// there are no post-freeze live samples yet).
	for i := 16; i < 32; i++ {
		s.AppendAt(at(time.Duration(40-i)*time.Minute), float64(i%10))
	}
	e.Tick(base.Add(-8 * time.Minute))
	if a := alertFor(t, e, "drift"); a.State != StateInactive {
		t.Fatalf("freeze tick: state %s", a.State)
	}

	// Live samples from the same distribution: no drift.
	for i := 0; i < 12; i++ {
		s.AppendAt(at(time.Duration(7*60-i*10)*time.Second), float64(i%10))
	}
	e.Tick(base.Add(-5 * time.Minute))
	a := alertFor(t, e, "drift")
	if a.State != StateInactive {
		t.Fatalf("undrifted live window fired: psi=%g ks=%g", a.PSI, a.KS)
	}

	// The score distribution moves wholesale: drift fires, once.
	for i := 0; i < 12; i++ {
		s.AppendAt(at(time.Duration(4*60-i*10)*time.Second), 1000+float64(i))
	}
	e.Tick(base)
	a = alertFor(t, e, "drift")
	if a.State != StateFiring {
		t.Fatalf("drifted live window did not fire: %+v", a)
	}
	if a.PSI <= 0.25 && a.KS <= 0.3 {
		t.Errorf("firing drift alert without a statistic above its gate: psi=%g ks=%g", a.PSI, a.KS)
	}
	e.Tick(base.Add(time.Second)) // still firing: no second transition
	if b := alertFor(t, e, "drift"); b.State != StateFiring || b.FiredAt != a.FiredAt {
		t.Fatalf("sustained drift re-fired: %+v, first %+v", b, a)
	}

	// The drifted samples age out of the live window: not enough live
	// samples → inactive → resolved.
	e.Tick(base.Add(30 * time.Minute))
	if a := alertFor(t, e, "drift"); a.State != StateResolved {
		t.Errorf("aged-out drift did not resolve: %+v", a)
	}
}
