package obs_test

import (
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
)

// TestSweepTicksWatchdogOnce: the sampler's sweep is the watchdog's only
// clock. One sweep ticks the engine exactly once, at the sweep's
// timestamp, after the samples of that sweep are written.
func TestSweepTicksWatchdogOnce(t *testing.T) {
	reg := obs.NewRegistry()
	sp := obs.NewSampler(reg, time.Hour) // swept by hand
	e := alert.New(sp)
	// ResolveAfter counts ticks: the firing alert resolves on its second
	// clear tick, so a sweep that ticked twice would resolve it in one.
	if err := e.Add(alert.Rule{Name: "hot", Kind: alert.KindThreshold, Series: "temp",
		Agg: alert.AggLast, Op: alert.OpGT, Value: 5, ResolveAfter: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Status().IntervalSec; got != time.Hour.Seconds() {
		t.Errorf("status interval %gs, want the sampler's %gs", got, time.Hour.Seconds())
	}
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	sweep := func(i int) int64 {
		now := t0.Add(time.Duration(i) * time.Second)
		sp.SampleAt(now.UnixNano())
		if last := e.LastTick(); !last.Equal(now) {
			t.Fatalf("sweep %d at %s: engine last ticked at %s", i, now, last)
		}
		return now.UnixNano()
	}
	temp := reg.Gauge("temp")

	temp.Set(10)
	fired := sweep(1)
	if a := e.Alerts()[0]; a.State != alert.StateFiring || a.FiredAt != fired || a.Value != 10 {
		t.Fatalf("after a hot sweep: %+v, want firing at the sweep on its sample", a)
	}
	temp.Set(0)
	sweep(2)
	if a := e.Alerts()[0]; a.State != alert.StateFiring {
		t.Fatalf("one clear sweep resolved the alert (%+v): the sweep ticked more than once", a)
	}
	resolved := sweep(3)
	if a := e.Alerts()[0]; a.State != alert.StateResolved || a.ResolvedAt != resolved {
		t.Fatalf("after two clear sweeps: %+v, want resolved at the second", a)
	}
}
