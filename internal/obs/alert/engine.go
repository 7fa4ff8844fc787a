// The watchdog engine: holds the rule set, evaluates every rule against
// the obs registry on each sampler sweep, and drives the per-rule alert
// state machine (inactive → pending → firing → resolved). Evaluation is
// deterministic — Tick takes an explicit clock and derives every window
// cutoff from it — so tests (and the verify smoke) pin timestamps instead
// of sleeping. The steady-state tick of an enabled engine allocates
// nothing: series/histogram handles are cached per rule, window sweeps
// run through a prebuilt closure over per-rule scratch state, and the
// allocating work (exemplar attachment) happens only on the transition
// into firing.

package alert

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
)

// State is an alert's position in the lifecycle state machine.
type State string

const (
	// StateInactive: the rule's condition has never held (or cleared while
	// still pending).
	StateInactive State = "inactive"
	// StatePending: the condition holds but has not yet held for the
	// rule's For duration.
	StatePending State = "pending"
	// StateFiring: the condition has held for For; the alert is active.
	StateFiring State = "firing"
	// StateResolved: the alert fired and the condition then stayed clear
	// for ResolveAfter consecutive ticks. A resolved alert that stays
	// clear decays back to inactive after resolvedHoldTicks further
	// ticks; its ResolvedAt timestamp is kept for history.
	StateResolved State = "resolved"
)

// resolvedHoldTicks is how many further clear ticks a resolved alert
// stays visible as "resolved" before returning to inactive — 30 ticks is
// five minutes at the default 10 s sampler sweep, long enough for an
// operator (or `sleuthctl alerts`) to see that something fired and
// recovered, without /debug/alerts accumulating stale resolved rows
// forever.
const resolvedHoldTicks = 30

// Alert is the exported snapshot of one rule's current evaluation.
type Alert struct {
	Name      string `json:"name"`
	Kind      Kind   `json:"kind"`
	Series    string `json:"series,omitempty"`
	Severity  string `json:"severity,omitempty"`
	Component string `json:"component,omitempty"`
	State     State  `json:"state"`
	// Value is the rule's headline evaluation: the windowed aggregate
	// (threshold) or the short-window burn multiple (burn_rate).
	Value float64 `json:"value"`
	// TraceID is the worst exemplar of the backing histogram, attached
	// when the alert transitioned to firing — resolvable via
	// /debug/traces?id= and `sleuthctl trace`.
	TraceID string `json:"traceId,omitempty"`
	// ExemplarValue is the observation behind TraceID.
	ExemplarValue float64 `json:"exemplarValue,omitempty"`
	// Lifecycle timestamps, Unix nanoseconds (0 = never).
	PendingSince int64 `json:"pendingSince,omitempty"`
	FiredAt      int64 `json:"firedAt,omitempty"`
	ResolvedAt   int64 `json:"resolvedAt,omitempty"`
}

// ruleState is the engine-private evaluation state of one rule.
type ruleState struct {
	rule Rule

	// Cached handles, looked up lazily until found (series are usually
	// minted by the sampler after the engine is built).
	series *obs.Series
	num    *obs.Series
	den    *obs.Series
	hist   *obs.Histogram

	state         State
	pendingSince  time.Time
	firedAt       time.Time
	resolvedAt    time.Time
	inactiveTicks int

	value         float64
	traceID       string
	exemplarValue float64

	// burn_rate value-mode sweep state, updated by burnFn during
	// EachSince so the per-tick walk is closure-allocation-free.
	cutShort           int64
	totShort, badShort int
	totLong, badLong   int
	burnFn             func(ts int64, v float64)
}

// Engine evaluates a rule set against an obs registry on every sweep of
// the registry's sampler — the process has one telemetry clock, and the
// watchdog reads the samples that sweep just wrote. A nil *Engine is
// inert: every method is a nil-safe no-op, so a process with the
// watchdog disabled pays nothing.
type Engine struct {
	reg      *obs.Registry
	interval time.Duration // the sampler's sweep interval
	created  time.Time     // ReadyCheck's reference until the first tick

	mu    sync.Mutex
	rules []*ruleState

	lastTick atomic.Int64 // Unix nanoseconds of the latest completed tick
}

// New creates an engine over the sampler's registry and hooks its Tick to
// the end of every sweep. A nil sampler returns a nil engine — the
// disabled watchdog — because the sweep is the engine's only clock.
func New(sp *obs.Sampler) *Engine {
	if sp == nil {
		return nil
	}
	e := &Engine{reg: sp.Registry(), interval: sp.Interval(), created: time.Now()}
	sp.OnSweep(e.Tick)
	return e
}

// Add validates and installs rules. Duplicate names are rejected so two
// packs cannot silently shadow each other.
func (e *Engine) Add(rules ...Rule) error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
		for _, rs := range e.rules {
			if rs.rule.Name == r.Name {
				return fmt.Errorf("alert: duplicate rule %s", r.Name)
			}
		}
		rs := &ruleState{rule: r, state: StateInactive}
		rs.burnFn = func(ts int64, v float64) {
			rs.totLong++
			bad := v > rs.rule.Objective
			if bad {
				rs.badLong++
			}
			if ts >= rs.cutShort {
				rs.totShort++
				if bad {
					rs.badShort++
				}
			}
		}
		e.rules = append(e.rules, rs)
	}
	return nil
}

// RuleCount returns the number of installed rules.
func (e *Engine) RuleCount() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rules)
}

// LastTick returns the wall time of the latest completed evaluation.
func (e *Engine) LastTick() time.Time {
	if e == nil {
		return time.Time{}
	}
	ns := e.lastTick.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ReadyCheck adapts the engine into a readiness probe: not-ready once
// three sweep intervals pass without a tick — since the last tick, or
// since New for an engine that never ticked (a wedged or dead sampler
// must fail readiness, not hide). A nil engine returns a check that
// always passes — a deliberately disabled watchdog is not a readiness
// failure.
func (e *Engine) ReadyCheck() obs.ReadyCheck {
	return obs.ReadyCheck{
		Name: "watchdog",
		Check: func() error {
			if e == nil {
				return nil
			}
			last := e.LastTick()
			if last.IsZero() {
				last = e.created
			}
			if age := time.Since(last); age > 3*e.interval {
				return fmt.Errorf("watchdog stalled: no tick for %s", age.Round(time.Millisecond))
			}
			return nil
		},
	}
}

// Tick evaluates every rule at the given clock; the sampler calls it with
// each sweep's timestamp. All window cutoffs derive from now, so
// evaluation over pinned-timestamp series is deterministic.
func (e *Engine) Tick(now time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	for _, rs := range e.rules {
		if e.evaluate(rs, now) {
			rs.inactiveTicks = 0
			if rs.state == StateInactive || rs.state == StateResolved {
				rs.state = StatePending
				rs.pendingSince = now
			}
			if rs.state == StatePending && now.Sub(rs.pendingSince) >= rs.rule.For.D() {
				rs.state = StateFiring
				rs.firedAt = now
				e.attachExemplar(rs)
			}
		} else {
			switch rs.state {
			case StatePending:
				rs.state = StateInactive
			case StateFiring:
				rs.inactiveTicks++
				if rs.inactiveTicks >= rs.rule.resolveAfter() {
					rs.state = StateResolved
					rs.resolvedAt = now
					rs.inactiveTicks = 0
				}
			case StateResolved:
				rs.inactiveTicks++
				if rs.inactiveTicks >= resolvedHoldTicks {
					rs.state = StateInactive
				}
			}
		}
	}
	e.mu.Unlock()
	e.lastTick.Store(now.UnixNano())
}

// evaluate computes whether rs's condition holds at now, refreshing
// rs.value. Called under e.mu.
func (e *Engine) evaluate(rs *ruleState, now time.Time) bool {
	switch rs.rule.Kind {
	case KindThreshold:
		return e.evalThreshold(rs, now)
	case KindBurnRate:
		return e.evalBurnRate(rs, now)
	}
	return false
}

// cutoff converts a window into the Unix-nanosecond cutoff at now; a
// non-positive window covers everything.
func cutoff(now time.Time, w Duration) int64 {
	if w <= 0 {
		return 0
	}
	return now.Add(-w.D()).UnixNano()
}

// minCount returns the rule's sample floor (default 1).
func minCount(r *Rule) int {
	if r.MinCount > 0 {
		return r.MinCount
	}
	return 1
}

func (e *Engine) evalThreshold(rs *ruleState, now time.Time) bool {
	if rs.series == nil {
		rs.series = e.reg.LookupSeries(rs.rule.Series)
		if rs.series == nil {
			return false
		}
	}
	st := rs.series.StatsSince(cutoff(now, rs.rule.Window))
	if st.Count < minCount(&rs.rule) {
		return false
	}
	var v float64
	switch rs.rule.Agg {
	case AggMean:
		v = st.Mean
	case AggMin:
		v = st.Min
	case AggMax:
		v = st.Max
	case AggSum:
		v = st.Sum
	case AggCount:
		v = float64(st.Count)
	case AggDelta:
		v = st.Last - st.First
	case AggLastOverMean:
		if st.Mean == 0 {
			return false
		}
		v = st.Last / st.Mean
	default: // AggLast
		v = st.Last
	}
	rs.value = v
	return rs.rule.Op.compare(v, rs.rule.Value)
}

func (e *Engine) evalBurnRate(rs *ruleState, now time.Time) bool {
	budget := 1 - rs.rule.Target
	cutLong := cutoff(now, rs.rule.LongWindow)
	cutShort := cutoff(now, rs.rule.ShortWindow)
	var burnShort, burnLong float64
	if rs.rule.NumSeries != "" {
		// Ratio mode: bad fraction is ΔNum/ΔDen per window.
		if rs.num == nil {
			rs.num = e.reg.LookupSeries(rs.rule.NumSeries)
		}
		if rs.den == nil {
			rs.den = e.reg.LookupSeries(rs.rule.DenSeries)
		}
		if rs.num == nil || rs.den == nil {
			return false
		}
		fracOf := func(cut int64) (float64, bool) {
			dn := rs.den.StatsSince(cut)
			if dn.Count < minCount(&rs.rule) {
				return 0, false
			}
			dDen := dn.Last - dn.First
			if dDen <= 0 {
				return 0, false
			}
			nm := rs.num.StatsSince(cut)
			dNum := nm.Last - nm.First
			if dNum < 0 {
				dNum = 0
			}
			return dNum / dDen, true
		}
		fs, okS := fracOf(cutShort)
		fl, okL := fracOf(cutLong)
		if !okS || !okL {
			return false
		}
		burnShort, burnLong = fs/budget, fl/budget
	} else {
		// Value mode: a sample above Objective is bad; one sweep over the
		// long window counts both windows.
		if rs.series == nil {
			rs.series = e.reg.LookupSeries(rs.rule.Series)
			if rs.series == nil {
				return false
			}
		}
		rs.cutShort = cutShort
		rs.totShort, rs.badShort, rs.totLong, rs.badLong = 0, 0, 0, 0
		rs.series.EachSince(cutLong, rs.burnFn)
		if rs.totShort < minCount(&rs.rule) || rs.totLong < minCount(&rs.rule) {
			return false
		}
		burnShort = float64(rs.badShort) / float64(rs.totShort) / budget
		burnLong = float64(rs.badLong) / float64(rs.totLong) / budget
	}
	rs.value = burnShort
	f := rs.rule.burnFactor()
	return burnShort >= f && burnLong >= f
}

// attachExemplar resolves the worst exemplar of the histogram backing
// the rule's series, if any, as the alert's trace link. "Worst" follows
// the rule's operator: lower-is-worse rules (lt/le) take the smallest
// observation, everything else the largest. Runs only on the transition
// into firing, so its allocations are off the steady path. Called under
// e.mu.
func (e *Engine) attachExemplar(rs *ruleState) {
	name := rs.rule.Series
	if name == "" {
		return
	}
	if rs.hist == nil {
		rs.hist = e.reg.LookupHistogram(obs.HistogramSeriesBase(name))
		if rs.hist == nil {
			return
		}
	}
	rs.traceID, rs.exemplarValue = "", 0
	wantMin := rs.rule.Op == OpLT || rs.rule.Op == OpLE
	seen := false
	for _, ex := range rs.hist.Exemplars() {
		if ex.TraceID == "" {
			continue
		}
		if !seen || (wantMin && ex.Value < rs.exemplarValue) ||
			(!wantMin && ex.Value > rs.exemplarValue) {
			rs.traceID, rs.exemplarValue = ex.TraceID, ex.Value
			seen = true
		}
	}
}

// Alerts returns a snapshot of every rule's current alert state.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.rules))
	for _, rs := range e.rules {
		a := Alert{
			Name:          rs.rule.Name,
			Kind:          rs.rule.Kind,
			Series:        rs.rule.Series,
			Severity:      rs.rule.Severity,
			Component:     rs.rule.Component,
			State:         rs.state,
			Value:         rs.value,
			TraceID:       rs.traceID,
			ExemplarValue: rs.exemplarValue,
		}
		if !rs.pendingSince.IsZero() {
			a.PendingSince = rs.pendingSince.UnixNano()
		}
		if !rs.firedAt.IsZero() {
			a.FiredAt = rs.firedAt.UnixNano()
		}
		if !rs.resolvedAt.IsZero() {
			a.ResolvedAt = rs.resolvedAt.UnixNano()
		}
		out = append(out, a)
	}
	return out
}
