// Package alert is Sleuth's self-watchdog: a zero-dependency rule engine
// that watches the process's own telemetry — the obs.Series ring buffers
// every component already feeds — and turns sustained degradation into
// typed, stateful alerts before an operator has to notice it in a
// dashboard.
//
// Three rule kinds cover the failure classes an RCA service meets in
// production:
//
//   - threshold: an aggregate of one series over one window crossed a
//     bound (queue depth, drop counts, loss spikes);
//   - burn_rate: Google-SRE multi-window SLO burn — the rule fires only
//     when BOTH a short and a long window burn error budget faster than
//     the allowed factor, so a brief blip neither pages nor does a slow
//     leak hide;
//   - drift: the live distribution of a series (model scores, feature
//     stats) moved away from a frozen reference window, measured by PSI
//     (population stability index) and the KS statistic.
//
// Rules are declarative values — loadable from JSON (the -alert-rules
// flag) or built in Go (the default packs in packs.go) — and evaluated by
// an Engine on a background tick. Every alert walks a pending → firing →
// resolved state machine and, when the watched series is a histogram
// projection (<hist>.p99 …), carries the worst exemplar trace ID out of
// the backing histogram, so a firing alert links straight to a self-trace
// in the ring (`sleuthctl trace`).
//
// Like the rest of internal/obs, the disabled path is free: a nil
// *Engine is inert, every method on it is a nil-safe no-op, and an
// enabled engine's steady-state tick allocates nothing (gated by
// TestAlertSteadyStateAllocs in `make alloc`).
package alert

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"
)

// Kind selects a rule's evaluation semantics.
type Kind string

const (
	// KindThreshold compares one windowed aggregate against a bound.
	KindThreshold Kind = "threshold"
	// KindBurnRate is multi-window SLO burn-rate: both the short and the
	// long window must burn budget faster than BurnFactor.
	KindBurnRate Kind = "burn_rate"
	// KindDrift compares the live window distribution against a frozen
	// reference using PSI and the KS statistic.
	KindDrift Kind = "drift"
)

// Agg names a windowed aggregation of a series for threshold rules.
type Agg string

const (
	AggLast  Agg = "last"  // most recent sample in the window
	AggMean  Agg = "mean"  // arithmetic mean
	AggMin   Agg = "min"   // minimum
	AggMax   Agg = "max"   // maximum
	AggSum   Agg = "sum"   // sum (per-event series: total in window)
	AggCount Agg = "count" // number of samples in the window
	// AggDelta is last-first — the increase of a cumulative counter
	// series across the window (deterministic, unlike a per-second rate).
	AggDelta Agg = "delta"
	// AggLastOverMean is last/mean — a unitless spike detector: how many
	// times the latest sample exceeds the window's typical value.
	AggLastOverMean Agg = "last_over_mean"
)

// Op is a comparison operator.
type Op string

const (
	OpGT Op = "gt"
	OpGE Op = "ge"
	OpLT Op = "lt"
	OpLE Op = "le"
)

// compare applies the operator; unknown operators default to gt.
func (o Op) compare(v, bound float64) bool {
	switch o {
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	case OpGE:
		return v >= bound
	default:
		return v > bound
	}
}

// Duration is a time.Duration that unmarshals from JSON as a Go duration
// string ("5m", "90s") or a bare number of seconds, so rule files read
// like Prometheus configs rather than nanosecond integers.
type Duration time.Duration

// D converts to the stdlib type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m" / "300s" / 300 / 300.5 (seconds). A seconds
// count with no int64 nanosecond count (NaN, ±Inf, overflow) is an error.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		if sec, err := strconv.ParseFloat(s, 64); err == nil {
			return d.setSeconds(sec)
		}
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("alert: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var sec float64
	if err := json.Unmarshal(b, &sec); err != nil {
		return fmt.Errorf("alert: bad duration %s", b)
	}
	return d.setSeconds(sec)
}

// setSeconds stores sec seconds, rejecting counts outside int64 nanoseconds.
func (d *Duration) setSeconds(sec float64) error {
	if ns := sec * float64(time.Second); ns >= math.MinInt64 && ns < math.MaxInt64 {
		*d = Duration(ns)
		return nil
	}
	return fmt.Errorf("alert: duration %g s out of range", sec) // NaN lands here too
}

// Rule is one declarative watchdog rule. Kind selects which field group
// applies; Validate reports misconfigurations up front so a bad rule file
// fails at load, not silently at tick time.
type Rule struct {
	// Name identifies the rule (and its alert) — unique within an engine.
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Series is the watched ring-buffer series. For histogram-derived
	// series (<hist>.p50/.p99/.count) a firing alert attaches the worst
	// exemplar trace ID of the backing histogram.
	Series string `json:"series,omitempty"`
	// Severity and Component are free-form labels carried on the alert
	// (and into the Prometheus ALERTS exposition).
	Severity  string `json:"severity,omitempty"`
	Component string `json:"component,omitempty"`
	// For holds a newly active rule in pending this long before it fires
	// (0 = fire on the first active tick).
	For Duration `json:"for,omitempty"`
	// ResolveAfter is the number of consecutive inactive ticks a firing
	// alert needs to resolve (default 1; raise it to damp flapping).
	ResolveAfter int `json:"resolveAfter,omitempty"`

	// --- threshold fields -------------------------------------------------
	// Window is the evaluation window (0 = whole ring).
	Window Duration `json:"window,omitempty"`
	// Agg is the windowed aggregation (default last).
	Agg Agg `json:"agg,omitempty"`
	// Op compares the aggregate against Value (default gt).
	Op Op `json:"op,omitempty"`
	// Value is the threshold bound.
	Value float64 `json:"value,omitempty"`
	// MinCount is the minimum number of samples in the window before the
	// rule evaluates at all (default 1) — guards ratio aggregations.
	MinCount int `json:"minCount,omitempty"`

	// --- burn_rate fields -------------------------------------------------
	// Target is the SLO target fraction in (0,1), e.g. 0.99: "99% of
	// samples must be good". The error budget is 1-Target.
	Target float64 `json:"target,omitempty"`
	// Objective classifies samples in value mode: a sample of Series
	// above Objective is "bad" (e.g. a p99 latency sample above 50000µs).
	// Ignored in ratio mode.
	Objective float64 `json:"objective,omitempty"`
	// NumSeries/DenSeries select ratio mode: both are cumulative counter
	// series (sampler-fed), and the bad fraction over a window is
	// ΔNum/ΔDen. When NumSeries is empty the rule runs in value mode over
	// Series.
	NumSeries string `json:"numSeries,omitempty"`
	DenSeries string `json:"denSeries,omitempty"`
	// ShortWindow/LongWindow are the two burn windows (e.g. 5m and 1h).
	ShortWindow Duration `json:"shortWindow,omitempty"`
	LongWindow  Duration `json:"longWindow,omitempty"`
	// BurnFactor is the budget-burn multiple both windows must exceed
	// (default 1 = burning exactly the sustainable rate).
	BurnFactor float64 `json:"burnFactor,omitempty"`

	// --- drift fields -----------------------------------------------------
	// RefMin is the number of samples the series needs before the
	// reference window freezes (default 64). Until frozen the rule is
	// inactive.
	RefMin int `json:"refMin,omitempty"`
	// MaxPSI fires the rule when the population stability index of the
	// live window vs the reference exceeds it (0 disables the PSI gate;
	// the conventional "significant shift" bound is 0.25).
	MaxPSI float64 `json:"maxPSI,omitempty"`
	// MaxKS fires the rule when the Kolmogorov–Smirnov statistic (max CDF
	// gap, in [0,1]) exceeds it (0 disables the KS gate).
	MaxKS float64 `json:"maxKS,omitempty"`
}

// Validate reports the first misconfiguration of the rule.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule with empty name")
	}
	for _, d := range [...]Duration{r.For, r.Window, r.ShortWindow, r.LongWindow} {
		if d < 0 {
			return fmt.Errorf("alert: rule %s: negative duration %s", r.Name, d.D())
		}
	}
	switch r.Kind {
	case KindThreshold:
		if r.Series == "" {
			return fmt.Errorf("alert: rule %s: threshold needs a series", r.Name)
		}
		switch r.Agg {
		case "", AggLast, AggMean, AggMin, AggMax, AggSum, AggCount, AggDelta, AggLastOverMean:
		default:
			return fmt.Errorf("alert: rule %s: unknown agg %q", r.Name, r.Agg)
		}
		switch r.Op {
		case "", OpGT, OpGE, OpLT, OpLE:
		default:
			return fmt.Errorf("alert: rule %s: unknown op %q", r.Name, r.Op)
		}
	case KindBurnRate:
		if r.Target <= 0 || r.Target >= 1 {
			return fmt.Errorf("alert: rule %s: burn_rate target must be in (0,1), got %g", r.Name, r.Target)
		}
		if r.ShortWindow <= 0 || r.LongWindow <= 0 {
			return fmt.Errorf("alert: rule %s: burn_rate needs shortWindow and longWindow", r.Name)
		}
		if r.ShortWindow > r.LongWindow {
			return fmt.Errorf("alert: rule %s: shortWindow exceeds longWindow", r.Name)
		}
		if r.NumSeries == "" && r.Series == "" {
			return fmt.Errorf("alert: rule %s: burn_rate needs series (value mode) or numSeries/denSeries (ratio mode)", r.Name)
		}
		if r.NumSeries != "" && r.DenSeries == "" {
			return fmt.Errorf("alert: rule %s: numSeries without denSeries", r.Name)
		}
		if r.NumSeries == "" && r.Objective <= 0 {
			return fmt.Errorf("alert: rule %s: value-mode burn_rate needs an objective", r.Name)
		}
	case KindDrift:
		if r.Series == "" {
			return fmt.Errorf("alert: rule %s: drift needs a series", r.Name)
		}
		if r.MaxPSI <= 0 && r.MaxKS <= 0 {
			return fmt.Errorf("alert: rule %s: drift needs maxPSI or maxKS", r.Name)
		}
		if r.MaxKS < 0 || r.MaxKS > 1 {
			return fmt.Errorf("alert: rule %s: maxKS must be in [0,1]", r.Name)
		}
	default:
		return fmt.Errorf("alert: rule %s: unknown kind %q", r.Name, r.Kind)
	}
	return nil
}

// burnFactor returns the configured factor with its default applied.
func (r *Rule) burnFactor() float64 {
	if r.BurnFactor > 0 {
		return r.BurnFactor
	}
	return 1
}

// refMin returns the configured reference size with its default applied.
func (r *Rule) refMin() int {
	if r.RefMin > 0 {
		return r.RefMin
	}
	return 64
}

// resolveAfter returns the configured resolve damping with its default.
func (r *Rule) resolveAfter() int {
	if r.ResolveAfter > 0 {
		return r.ResolveAfter
	}
	return 1
}

// rulesFile is the JSON rule-file document: either a bare array of rules
// or an object with a "rules" key (both accepted).
type rulesFile struct {
	Rules []Rule `json:"rules"`
}

// ParseRules decodes a rule file body and validates every rule.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		var doc rulesFile
		if err2 := json.Unmarshal(data, &doc); err2 != nil {
			return nil, fmt.Errorf("alert: parsing rules: %w", err)
		}
		rules = doc.Rules
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// LoadRulesFile reads and parses a JSON rule file.
func LoadRulesFile(path string) ([]Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseRules(data)
}
