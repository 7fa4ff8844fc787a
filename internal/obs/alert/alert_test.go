package alert

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
)

// base is the pinned evaluation clock every deterministic test derives
// sample timestamps and tick times from.
var base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// at returns the Unix-nanosecond timestamp `ago` before base.
func at(ago time.Duration) int64 { return base.Add(-ago).UnixNano() }

// newEngine builds a fresh registry + engine with the given rules, failing
// the test on any validation error.
func newEngine(t *testing.T, rules ...Rule) (*obs.Registry, *Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	e := New(reg, time.Second)
	if e == nil {
		t.Fatal("New returned nil for a non-nil registry")
	}
	if err := e.Add(rules...); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return reg, e
}

// alertFor fetches the named alert snapshot.
func alertFor(t *testing.T, e *Engine, name string) Alert {
	t.Helper()
	for _, a := range e.Alerts() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("alert %s not found", name)
	return Alert{}
}

func TestDurationUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		err  bool
	}{
		{`"5m"`, 5 * time.Minute, false},
		{`"90s"`, 90 * time.Second, false},
		{`"300"`, 300 * time.Second, false},
		{`300`, 300 * time.Second, false},
		{`1.5`, 1500 * time.Millisecond, false},
		{`"bogus"`, 0, true},
		{`{}`, 0, true},
	}
	for _, tc := range cases {
		var d Duration
		err := json.Unmarshal([]byte(tc.in), &d)
		if tc.err != (err != nil) {
			t.Errorf("unmarshal %s: err=%v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && d.D() != tc.want {
			t.Errorf("unmarshal %s = %s, want %s", tc.in, d.D(), tc.want)
		}
	}
	// Round trip through MarshalJSON.
	b, err := json.Marshal(Duration(5 * time.Minute))
	if err != nil || string(b) != `"5m0s"` {
		t.Errorf("marshal 5m = %s (%v)", b, err)
	}
}

func TestRuleValidate(t *testing.T) {
	bad := []Rule{
		{},                               // no name
		{Name: "x"},                      // no kind
		{Name: "x", Kind: "weird"},       // unknown kind
		{Name: "x", Kind: KindThreshold}, // threshold without series
		{Name: "x", Kind: KindThreshold, Series: "s", Agg: "median"},
		{Name: "x", Kind: KindThreshold, Series: "s", Op: "ne"},
		{Name: "x", Kind: KindBurnRate, Series: "s", Objective: 1,
			ShortWindow: Duration(time.Minute), LongWindow: Duration(time.Hour)}, // target unset
		{Name: "x", Kind: KindBurnRate, Series: "s", Objective: 1, Target: 0.99}, // no windows
		{Name: "x", Kind: KindBurnRate, Series: "s", Objective: 1, Target: 0.99,
			ShortWindow: Duration(time.Hour), LongWindow: Duration(time.Minute)}, // short > long
		{Name: "x", Kind: KindBurnRate, Target: 0.99,
			ShortWindow: Duration(time.Minute), LongWindow: Duration(time.Hour)}, // no series at all
		{Name: "x", Kind: KindBurnRate, Target: 0.99, NumSeries: "n",
			ShortWindow: Duration(time.Minute), LongWindow: Duration(time.Hour)}, // num without den
		{Name: "x", Kind: KindBurnRate, Series: "s", Target: 0.99,
			ShortWindow: Duration(time.Minute), LongWindow: Duration(time.Hour)}, // value mode, no objective
		{Name: "x", Kind: KindDrift},                          // no series
		{Name: "x", Kind: KindDrift, Series: "s"},             // no gate
		{Name: "x", Kind: KindDrift, Series: "s", MaxKS: 1.5}, // ks out of range
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a bad rule", i, r)
		}
	}
	good := []Rule{
		{Name: "t", Kind: KindThreshold, Series: "s", Agg: AggMean, Op: OpGE, Value: 1},
		{Name: "b", Kind: KindBurnRate, Series: "s", Target: 0.99, Objective: 100,
			ShortWindow: Duration(5 * time.Minute), LongWindow: Duration(time.Hour)},
		{Name: "r", Kind: KindBurnRate, NumSeries: "n", DenSeries: "d", Target: 0.995,
			ShortWindow: Duration(5 * time.Minute), LongWindow: Duration(time.Hour)},
		{Name: "d", Kind: KindDrift, Series: "s", MaxPSI: 0.25},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("rule %s: Validate rejected a good rule: %v", r.Name, err)
		}
	}
}

func TestParseRules(t *testing.T) {
	bare := `[{"name":"a","kind":"threshold","series":"s","window":"5m","agg":"mean","op":"gt","value":10,"for":"30s"}]`
	rules, err := ParseRules([]byte(bare))
	if err != nil || len(rules) != 1 {
		t.Fatalf("ParseRules bare array: %v (%d rules)", err, len(rules))
	}
	if rules[0].Window.D() != 5*time.Minute || rules[0].For.D() != 30*time.Second {
		t.Errorf("durations not parsed: window=%s for=%s", rules[0].Window.D(), rules[0].For.D())
	}
	wrapped := `{"rules":[{"name":"a","kind":"drift","series":"s","maxPSI":0.25}]}`
	rules, err = ParseRules([]byte(wrapped))
	if err != nil || len(rules) != 1 || rules[0].Kind != KindDrift {
		t.Fatalf("ParseRules wrapped doc: %v (%+v)", err, rules)
	}
	if _, err := ParseRules([]byte(`[{"name":"a","kind":"nope"}]`)); err == nil {
		t.Error("ParseRules accepted an invalid rule")
	}
	if _, err := ParseRules([]byte(`{{{`)); err == nil {
		t.Error("ParseRules accepted malformed JSON")
	}
}

// badWindows are rule-file window values with no sane duration: NaN, ±Inf
// and overflowing seconds counts, and negative spans.
var badWindows = []string{`"NaN"`, `"Inf"`, `1e300`, `"1e12"`, `-5`, `"-5m"`}

// windowRule is a one-rule file whose threshold rule has the given window.
func windowRule(window string) []byte {
	return []byte(`[{"name":"a","kind":"threshold","series":"s","window":` + window + `}]`)
}

func TestParseRulesRejectsBadDurations(t *testing.T) {
	for _, w := range badWindows {
		if rules, err := ParseRules(windowRule(w)); err == nil {
			t.Errorf("window %s: accepted as %d ns", w, int64(rules[0].Window))
		}
	}
}

// FuzzParseRules: ParseRules never panics, every rule it accepts carries
// only non-negative durations, and every accepted set round-trips through
// json.Marshal to a deep-equal set.
func FuzzParseRules(f *testing.F) {
	for _, pack := range [][]Rule{CollectorRules(), ModelServerRules(), TrainingRules()} {
		data, err := json.Marshal(pack)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, w := range badWindows {
		f.Add(windowRule(w))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ParseRules(data)
		if err != nil {
			return
		}
		for _, r := range rules {
			if r.For < 0 || r.Window < 0 || r.ShortWindow < 0 || r.LongWindow < 0 {
				t.Fatalf("rule %q accepted with a negative duration: %+v", r.Name, r)
			}
		}
		again, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("marshal accepted rules: %v", err)
		}
		back, err := ParseRules(again)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", again, err)
		}
		if !reflect.DeepEqual(rules, back) {
			t.Fatalf("round trip changed the rules:\n  %+v\n  %+v", rules, back)
		}
	})
}

func TestEngineRejectsDuplicateNames(t *testing.T) {
	_, e := newEngine(t, Rule{Name: "dup", Kind: KindThreshold, Series: "s"})
	if err := e.Add(Rule{Name: "dup", Kind: KindThreshold, Series: "other"}); err == nil {
		t.Error("Add accepted a duplicate rule name")
	}
}

func TestThresholdAggs(t *testing.T) {
	// Samples in the window: 1, 2, 3, 4, 10 (oldest→newest).
	// last=10 first=1 mean=4 min=1 max=10 sum=20 count=5 delta=9 last/mean=2.5
	cases := []struct {
		agg       Agg
		op        Op
		bound     float64
		active    bool
		wantValue float64
	}{
		{AggLast, OpGT, 5, true, 10},
		{AggLast, OpGT, 10, false, 10},
		{AggMean, OpGE, 4, true, 4},
		{AggMin, OpLT, 2, true, 1},
		{AggMax, OpLE, 10, true, 10},
		{AggSum, OpGT, 19, true, 20},
		{AggCount, OpGE, 5, true, 5},
		{AggDelta, OpGT, 8, true, 9},
		{AggLastOverMean, OpGT, 2, true, 2.5},
		{AggLastOverMean, OpGT, 3, false, 2.5},
	}
	for _, tc := range cases {
		rule := Rule{
			Name: "r", Kind: KindThreshold, Series: "s",
			Window: Duration(10 * time.Minute),
			Agg:    tc.agg, Op: tc.op, Value: tc.bound,
		}
		reg, e := newEngine(t, rule)
		s := reg.Series("s")
		for i, v := range []float64{1, 2, 3, 4, 10} {
			s.AppendAt(at(time.Duration(5-i)*time.Minute), v)
		}
		e.Tick(base)
		a := alertFor(t, e, "r")
		wantState := StateInactive
		if tc.active {
			wantState = StateFiring // For=0 fires on the first active tick
		}
		if a.State != wantState {
			t.Errorf("agg %s %s %g: state %s, want %s", tc.agg, tc.op, tc.bound, a.State, wantState)
		}
		if a.Value != tc.wantValue {
			t.Errorf("agg %s: value %g, want %g", tc.agg, a.Value, tc.wantValue)
		}
	}
}

func TestThresholdWindowClipsOldSamples(t *testing.T) {
	rule := Rule{Name: "r", Kind: KindThreshold, Series: "s",
		Window: Duration(5 * time.Minute), Agg: AggMax, Op: OpGT, Value: 100}
	reg, e := newEngine(t, rule)
	s := reg.Series("s")
	s.AppendAt(at(time.Hour), 1e6) // spike, but far outside the window
	s.AppendAt(at(time.Minute), 50)
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StateInactive {
		t.Errorf("old out-of-window spike activated the rule: %+v", a)
	}
}

func TestThresholdMinCount(t *testing.T) {
	rule := Rule{Name: "r", Kind: KindThreshold, Series: "s",
		Window: Duration(10 * time.Minute), Agg: AggMean, Op: OpGT, Value: 0, MinCount: 3}
	reg, e := newEngine(t, rule)
	s := reg.Series("s")
	s.AppendAt(at(2*time.Minute), 5)
	s.AppendAt(at(time.Minute), 5)
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StateInactive {
		t.Errorf("rule evaluated below MinCount: %+v", a)
	}
	s.AppendAt(at(30*time.Second), 5)
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StateFiring {
		t.Errorf("rule did not fire at MinCount: %+v", a)
	}
}

func TestThresholdMissingSeriesIsInactive(t *testing.T) {
	_, e := newEngine(t, Rule{Name: "r", Kind: KindThreshold, Series: "never.minted", Value: 1})
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StateInactive {
		t.Errorf("missing series produced state %s", a.State)
	}
}

// burnRule is the value-mode burn rule the multi-window tests share:
// 99% of p99 samples must stay ≤ 1000, and both the 5m and 1h windows
// must burn budget at ≥ 2× to fire.
func burnRule() Rule {
	return Rule{
		Name: "burn", Kind: KindBurnRate, Series: "lat.p99",
		Target: 0.99, Objective: 1000, BurnFactor: 2,
		ShortWindow: Duration(5 * time.Minute),
		LongWindow:  Duration(time.Hour),
		MinCount:    3,
	}
}

func TestBurnRateValueModeNeedsBothWindows(t *testing.T) {
	// Bad samples confined to the long window: the incident is over, the
	// short window is clean — must NOT fire (that is the whole point of
	// multi-window burn alerting).
	reg, e := newEngine(t, burnRule())
	s := reg.Series("lat.p99")
	for i := 0; i < 10; i++ { // old regression, 40..31 minutes ago
		s.AppendAt(at(40*time.Minute-time.Duration(i)*time.Minute), 5000)
	}
	for i := 0; i < 5; i++ { // recent healthy samples inside the short window
		s.AppendAt(at(4*time.Minute-time.Duration(i)*30*time.Second), 100)
	}
	e.Tick(base)
	if a := alertFor(t, e, "burn"); a.State != StateInactive {
		t.Errorf("short-window-clean burn fired anyway: %+v", a)
	}
}

func TestBurnRateValueModeFiresAndResolves(t *testing.T) {
	reg, e := newEngine(t, burnRule())
	s := reg.Series("lat.p99")
	for i := 0; i < 20; i++ { // healthy history across the long window
		s.AppendAt(at(50*time.Minute-time.Duration(i)*2*time.Minute), 200)
	}
	for i := 0; i < 6; i++ { // active regression inside the short window
		s.AppendAt(at(4*time.Minute-time.Duration(i)*30*time.Second), 8000)
	}
	e.Tick(base)
	a := alertFor(t, e, "burn")
	if a.State != StateFiring {
		t.Fatalf("regression did not fire: %+v", a)
	}
	// Short-window burn: 6 bad of 6 samples / 0.01 budget = 100×.
	if a.Value < 2 {
		t.Errorf("burn value %g, want ≥ 2", a.Value)
	}

	// Recovery: healthy samples stream in and the clock advances past the
	// short window, so the bad samples only count against the long window.
	later := base.Add(10 * time.Minute)
	for i := 0; i < 6; i++ {
		s.AppendAt(later.Add(-time.Duration(i)*30*time.Second).UnixNano(), 150)
	}
	e.Tick(later)
	if a := alertFor(t, e, "burn"); a.State != StateResolved {
		t.Errorf("recovered burn did not resolve: %+v", a)
	}
}

func TestBurnRateRatioMode(t *testing.T) {
	rule := Rule{
		Name: "errs", Kind: KindBurnRate,
		NumSeries: "http.status_5xx", DenSeries: "http.requests",
		Target: 0.995, BurnFactor: 2,
		ShortWindow: Duration(5 * time.Minute),
		LongWindow:  Duration(time.Hour),
		MinCount:    2,
	}
	reg, e := newEngine(t, rule)
	num, den := reg.Series("http.status_5xx"), reg.Series("http.requests")

	// Cumulative counters sampled once a minute for the last 50 minutes:
	// requests grow 100/min throughout; errors are flat until the last
	// 6 minutes, then jump 10/min → short-window bad fraction 10% (20×
	// the 0.5% budget) and long-window 1.2% (2.4×) — both above 2×.
	for i := 50; i >= 0; i-- {
		ts := at(time.Duration(i) * time.Minute)
		den.AppendAt(ts, float64((50-i)*100))
		errs := 0.0
		if i < 6 {
			errs = float64((6 - i) * 10)
		}
		num.AppendAt(ts, errs)
	}
	e.Tick(base)
	a := alertFor(t, e, "errs")
	if a.State != StateFiring {
		t.Fatalf("error-rate burn did not fire: %+v", a)
	}

	// A denominator that stops moving (ΔDen=0 in the short window) must
	// deactivate the rule rather than divide by zero.
	later := base.Add(20 * time.Minute)
	den.AppendAt(later.Add(-2*time.Minute).UnixNano(), 5000)
	den.AppendAt(later.Add(-time.Minute).UnixNano(), 5000)
	num.AppendAt(later.Add(-2*time.Minute).UnixNano(), 60)
	num.AppendAt(later.Add(-time.Minute).UnixNano(), 60)
	e.Tick(later)
	if a := alertFor(t, e, "errs"); a.State != StateResolved {
		t.Errorf("flat-denominator burn did not resolve: %+v", a)
	}
}

func TestStateMachineForHoldAndFlapDamping(t *testing.T) {
	rule := Rule{
		Name: "r", Kind: KindThreshold, Series: "s",
		Agg: AggLast, Op: OpGT, Value: 5,
		For:          Duration(30 * time.Second),
		ResolveAfter: 2,
	}
	reg, e := newEngine(t, rule)
	s := reg.Series("s")

	// Active but younger than For: pending.
	s.AppendAt(at(time.Second), 10)
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StatePending {
		t.Fatalf("tick 1: state %s, want pending", a.State)
	}
	e.Tick(base.Add(10 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StatePending {
		t.Fatalf("tick 2 (inside For): state %s, want pending", a.State)
	}
	// Past the For hold: firing.
	e.Tick(base.Add(31 * time.Second))
	a := alertFor(t, e, "r")
	if a.State != StateFiring {
		t.Fatalf("tick 3 (past For): state %s, want firing", a.State)
	}
	if a.PendingSince == 0 || a.FiredAt == 0 {
		t.Errorf("lifecycle timestamps not set: %+v", a)
	}

	// Condition clears: ResolveAfter=2 keeps the alert firing through one
	// clear tick (flap damping), resolving on the second.
	s.AppendAt(base.Add(40*time.Second).UnixNano(), 1)
	e.Tick(base.Add(41 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StateFiring {
		t.Fatalf("one clear tick resolved a ResolveAfter=2 rule: %s", a.State)
	}
	e.Tick(base.Add(42 * time.Second))
	a = alertFor(t, e, "r")
	if a.State != StateResolved || a.ResolvedAt == 0 {
		t.Fatalf("second clear tick did not resolve: %+v", a)
	}

	// A single clear tick between two active ticks resets the damping
	// counter: the alert keeps firing after reactivation + full For hold.
	s.AppendAt(base.Add(50*time.Second).UnixNano(), 10)
	e.Tick(base.Add(51 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StatePending {
		t.Fatalf("resolved rule did not re-enter pending: %s", a.State)
	}
	e.Tick(base.Add(82 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StateFiring {
		t.Fatalf("re-activated rule did not re-fire: %s", a.State)
	}
}

func TestResolvedDecaysToInactive(t *testing.T) {
	rule := Rule{
		Name: "r", Kind: KindThreshold, Series: "s",
		Agg: AggLast, Op: OpGT, Value: 5,
	}
	reg, e := newEngine(t, rule)
	s := reg.Series("s")

	s.AppendAt(at(time.Second), 10)
	e.Tick(base) // For=0: fires immediately
	if a := alertFor(t, e, "r"); a.State != StateFiring {
		t.Fatalf("state %s, want firing", a.State)
	}
	s.AppendAt(base.Add(time.Second).UnixNano(), 1)
	e.Tick(base.Add(2 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StateResolved {
		t.Fatalf("state %s, want resolved", a.State)
	}

	// The resolved row stays visible through the hold window...
	tick := base.Add(2 * time.Second)
	for i := 0; i < resolvedHoldTicks-1; i++ {
		tick = tick.Add(time.Second)
		e.Tick(tick)
	}
	if a := alertFor(t, e, "r"); a.State != StateResolved {
		t.Fatalf("mid-hold state %s, want resolved", a.State)
	}
	// ...then decays to inactive instead of lingering forever, keeping
	// the resolve timestamp for history.
	e.Tick(tick.Add(time.Second))
	a := alertFor(t, e, "r")
	if a.State != StateInactive {
		t.Fatalf("post-hold state %s, want inactive", a.State)
	}
	if a.ResolvedAt == 0 {
		t.Error("decay to inactive dropped ResolvedAt")
	}
}

func TestAttachExemplarLowerIsWorse(t *testing.T) {
	rule := Rule{
		Name: "low", Kind: KindThreshold, Series: "headroom.p99",
		Agg: AggLast, Op: OpLT, Value: 50,
	}
	reg, e := newEngine(t, rule)
	h := reg.Histogram("headroom")
	h.ObserveExemplar(10000, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	h.ObserveExemplar(10, "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
	reg.Series("headroom.p99").AppendAt(at(time.Second), 10)
	e.Tick(base)
	a := alertFor(t, e, "low")
	if a.State != StateFiring {
		t.Fatalf("lt rule did not fire: %+v", a)
	}
	// A lower-is-worse rule links the smallest exemplar, not the largest.
	if a.TraceID != "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" || a.ExemplarValue != 10 {
		t.Errorf("lt rule exemplar = %q/%g, want the smallest (10)", a.TraceID, a.ExemplarValue)
	}
}

func TestStateMachinePendingClearsToInactive(t *testing.T) {
	rule := Rule{Name: "r", Kind: KindThreshold, Series: "s",
		Agg: AggLast, Op: OpGT, Value: 5, For: Duration(time.Minute)}
	reg, e := newEngine(t, rule)
	s := reg.Series("s")
	s.AppendAt(at(time.Second), 10)
	e.Tick(base)
	if a := alertFor(t, e, "r"); a.State != StatePending {
		t.Fatalf("state %s, want pending", a.State)
	}
	// Clears before For elapses: back to inactive, never fires.
	s.AppendAt(base.Add(5*time.Second).UnixNano(), 1)
	e.Tick(base.Add(10 * time.Second))
	if a := alertFor(t, e, "r"); a.State != StateInactive {
		t.Fatalf("cleared pending did not return to inactive: %s", a.State)
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	if got := New(nil, time.Second); got != nil {
		t.Fatal("New(nil, ...) should return a nil engine")
	}
	if err := e.Add(Rule{Name: "x"}); err != nil {
		t.Errorf("nil Add returned %v", err)
	}
	e.Start()
	e.Tick(base)
	e.Stop()
	e.Register()
	if e.Alerts() != nil || e.RuleCount() != 0 || e.Interval() != 0 {
		t.Error("nil engine leaked state")
	}
	if !e.LastTick().IsZero() {
		t.Error("nil engine has a last tick")
	}
	st := e.Status()
	if st.Enabled || len(st.Alerts) != 0 {
		t.Errorf("nil Status = %+v", st)
	}
	var sb strings.Builder
	e.AppendProm(&sb)
	if sb.Len() != 0 {
		t.Errorf("nil AppendProm wrote %q", sb.String())
	}
	rc := e.ReadyCheck()
	if rc.Name != "watchdog" || rc.Check() != nil {
		t.Errorf("nil ReadyCheck must always pass, got %v", rc.Check())
	}
}

func TestReadyCheckLifecycle(t *testing.T) {
	_, e := newEngine(t, Rule{Name: "r", Kind: KindThreshold, Series: "s", Value: 1})
	rc := e.ReadyCheck()
	if err := rc.Check(); err == nil {
		t.Error("never-ticked engine passed readiness")
	}
	e.Tick(time.Now())
	if err := rc.Check(); err != nil {
		t.Errorf("freshly ticked engine failed readiness: %v", err)
	}
	// A last tick older than 3× the interval means a wedged watchdog.
	e.lastTick.Store(time.Now().Add(-time.Minute).UnixNano())
	if err := rc.Check(); err == nil {
		t.Error("stalled engine passed readiness")
	}
}

func TestStatusOrdersFiringFirst(t *testing.T) {
	rules := []Rule{
		{Name: "quiet", Kind: KindThreshold, Series: "a", Agg: AggLast, Op: OpGT, Value: 100},
		{Name: "loud", Kind: KindThreshold, Series: "b", Agg: AggLast, Op: OpGT, Value: 1},
		{Name: "slow", Kind: KindThreshold, Series: "b", Agg: AggLast, Op: OpGT, Value: 2,
			For: Duration(time.Hour)},
	}
	reg, e := newEngine(t, rules...)
	reg.Series("a").AppendAt(at(time.Second), 1)
	reg.Series("b").AppendAt(at(time.Second), 10)
	e.Tick(base)
	st := e.Status()
	if !st.Enabled || st.Rules != 3 || st.Firing != 1 || st.Pending != 1 {
		t.Fatalf("status %+v", st)
	}
	got := []string{st.Alerts[0].Name, st.Alerts[1].Name, st.Alerts[2].Name}
	want := []string{"loud", "slow", "quiet"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("status order %v, want %v", got, want)
		}
	}
}

func TestAppendPromExposition(t *testing.T) {
	rule := Rule{Name: "r", Kind: KindThreshold, Series: "s",
		Agg: AggLast, Op: OpGT, Value: 1, Severity: "critical", Component: "test"}
	reg, e := newEngine(t, rule)
	var sb strings.Builder
	e.AppendProm(&sb)
	if sb.Len() != 0 {
		t.Errorf("inactive rules wrote exposition: %q", sb.String())
	}
	reg.Series("s").AppendAt(at(time.Second), 10)
	e.Tick(base)
	sb.Reset()
	e.AppendProm(&sb)
	want := `ALERTS{alertname="r",alertstate="firing",severity="critical",component="test"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition %q missing %q", sb.String(), want)
	}
	if !strings.Contains(sb.String(), "# TYPE ALERTS gauge") {
		t.Errorf("exposition missing TYPE header: %q", sb.String())
	}
}

// TestConcurrentTickVsWriters drives ticks, snapshot reads and series
// writes concurrently; its value is running race-clean under `make race`.
func TestConcurrentTickVsWriters(t *testing.T) {
	rules := []Rule{
		{Name: "thr", Kind: KindThreshold, Series: "s", Agg: AggMean, Op: OpGT, Value: 50},
		burnRule(),
		{Name: "drift", Kind: KindDrift, Series: "s", RefMin: 16, MaxPSI: 0.2},
	}
	reg, e := newEngine(t, rules...)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range []string{"s", "lat.p99"} {
		wg.Add(1)
		go func(series *obs.Series) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					series.Append(float64(i % 100))
				}
			}
		}(reg.Series(name))
	}
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			e.Tick(time.Now())
			_ = e.Alerts()
			_ = e.Status()
			sb.Reset()
			e.AppendProm(&sb)
		}
	}()
	<-tickDone // writers overlap the full tick run
	close(stop)
	wg.Wait()
}
