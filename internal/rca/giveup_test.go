package rca

import (
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TestExhaustedQueryReusesFirstAnswer: when the loop runs out of
// candidates without normalising, the verdict's restoration set is the top
// candidate alone — the first question's set — so LocalizeDetailed reuses
// that answer instead of asking again. On wide-blast Synthetic-256 queries
// (more faulted services than MaxCandidates) every Result must equal the
// loop that asks again, the reported duration must equal a fresh
// Model.Counterfactual on the top candidate's spans, and each exhausted
// query must ask exactly one question fewer.
func TestExhaustedQueryReusesFirstAnswer(t *testing.T) {
	f := newFixtureSized(t, 3, 256)
	var faults []chaos.Fault
	for svc := 0; svc < len(f.app.Services); svc += 2 {
		faults = append(faults, chaos.Fault{
			Type: chaos.FaultCPU, Level: chaos.LevelContainer,
			Target: f.app.Services[svc].Name, SlowFactor: 3, ErrorProb: 0.9,
		})
	}
	res, err := f.sim.RunWithInjector(5000, 16, chaos.NewInjector(f.app, chaos.NewPlan(f.app, faults...)))
	if err != nil {
		t.Fatal(err)
	}

	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	asked := obs.C("rca.counterfactuals")
	exhausted := 0
	for i, r := range res {
		tr := r.Trace
		want, wantQuestions := localizeAskingAgain(f.loc, tr, f.slo)
		before := asked.Value()
		got := f.loc.LocalizeDetailed(tr, f.slo)
		questions := int(asked.Value() - before)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: %+v, asking again gives %+v", i, got, want)
		}
		if got.Normalized {
			if questions != wantQuestions {
				t.Fatalf("query %d normalised after %d questions, want %d", i, questions, wantQuestions)
			}
			continue
		}
		exhausted++
		if questions != wantQuestions-1 {
			t.Fatalf("exhausted query %d asked %d questions, want %d (one fewer than %d)",
				i, questions, wantQuestions-1, wantQuestions)
		}
		top := f.loc.Candidates(tr)[0]
		if fresh := f.model.Counterfactual(tr, spanSet(top.spans)); got.PredictedDuration != fresh.RootDurationMicros {
			t.Fatalf("exhausted query %d: PredictedDuration %v, fresh counterfactual on %s %v",
				i, got.PredictedDuration, top.service, fresh.RootDurationMicros)
		}
	}
	if exhausted == 0 {
		t.Fatal("no wide-blast query exhausted the loop")
	}
	t.Logf("%d of %d queries exhausted the loop", exhausted, len(res))
}

// localizeAskingAgain is the localisation loop with the give-up question
// asked afresh (the behaviour LocalizeDetailed replaced), returning the
// Result and the number of counterfactual questions it asked.
func localizeAskingAgain(l *Localizer, tr *trace.Trace, slo float64) (Result, int) {
	cands := l.Candidates(tr)
	sess := l.Model.NewCounterfactualSession(tr)
	defer sess.Close()
	restored := map[int]bool{}
	var used []string
	questions := 0
	for k := 0; k < min(l.Opts.MaxCandidates, len(cands)); k++ {
		for _, si := range cands[k].spans {
			restored[si] = true
		}
		used = append(used, cands[k].service)
		cf := sess.Counterfactual(restored)
		questions++
		if cf.RootDurationMicros <= slo && cf.RootErrorProb < ErrThreshold {
			return l.result(tr, used, true, cf.RootDurationMicros), questions
		}
	}
	cf := sess.Counterfactual(spanSet(cands[0].spans))
	questions++
	return l.result(tr, []string{cands[0].service}, false, cf.RootDurationMicros), questions
}
