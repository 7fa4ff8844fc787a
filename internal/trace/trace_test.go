package trace

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func span(tid, id, parent, svc, name string, kind Kind, start, end int64, errFlag bool) *Span {
	return &Span{
		TraceID: tid, SpanID: id, ParentID: parent,
		Service: svc, Name: name, Kind: kind,
		Start: start, End: end, Error: errFlag,
	}
}

// figure2Trace builds the example trace from the paper's Figure 2:
// parent P spans [0,100], child A [10,60], child B [30,80].
func figure2Trace(t *testing.T) *Trace {
	t.Helper()
	spans := []*Span{
		span("t1", "p", "", "frontend", "handle", KindServer, 0, 100, false),
		span("t1", "a", "p", "svcA", "opA", KindClient, 10, 60, false),
		span("t1", "b", "p", "svcB", "opB", KindClient, 30, 80, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAssembleFigure2Structure(t *testing.T) {
	tr := figure2Trace(t)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("roots = %v", tr.Roots())
	}
	root := tr.Roots()[0]
	if tr.Spans[root].SpanID != "p" {
		t.Fatalf("root = %q", tr.Spans[root].SpanID)
	}
	if got := len(tr.Children(root)); got != 2 {
		t.Fatalf("root children = %d", got)
	}
	if tr.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d", tr.MaxDepth())
	}
	if tr.RootDuration() != 100 {
		t.Fatalf("RootDuration = %d", tr.RootDuration())
	}
}

// TestExclusiveDurationFigure2 checks the exact worked example in §3.2.2:
// P gets (t1-t0)+(t5-t4)=30, A gets t3-t1=50, B gets t4-t2=50.
func TestExclusiveDurationFigure2(t *testing.T) {
	tr := figure2Trace(t)
	byID := map[string]int{}
	for i, s := range tr.Spans {
		byID[s.SpanID] = i
	}
	if got := tr.ExclusiveDuration(byID["p"]); got != 30 {
		t.Errorf("exclusive(P) = %d, want 30", got)
	}
	if got := tr.ExclusiveDuration(byID["a"]); got != 50 {
		t.Errorf("exclusive(A) = %d, want 50", got)
	}
	if got := tr.ExclusiveDuration(byID["b"]); got != 50 {
		t.Errorf("exclusive(B) = %d, want 50", got)
	}
}

func TestExclusiveDurationFullyCovered(t *testing.T) {
	spans := []*Span{
		span("t", "p", "", "s", "op", KindServer, 0, 100, false),
		span("t", "c", "p", "s2", "op2", KindClient, 0, 100, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	var p int
	for i, s := range tr.Spans {
		if s.SpanID == "p" {
			p = i
		}
	}
	if got := tr.ExclusiveDuration(p); got != 0 {
		t.Fatalf("fully-covered parent exclusive = %d, want 0", got)
	}
}

func TestExclusiveDurationChildBeyondParent(t *testing.T) {
	// Async child outlives the parent: the overlap must be clipped to the
	// parent window and exclusive duration must never go negative.
	spans := []*Span{
		span("t", "p", "", "s", "op", KindServer, 0, 50, false),
		span("t", "c", "p", "q", "consume", KindProducer, 40, 500, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	var p int
	for i, s := range tr.Spans {
		if s.SpanID == "p" {
			p = i
		}
	}
	if got := tr.ExclusiveDuration(p); got != 40 {
		t.Fatalf("clipped exclusive = %d, want 40", got)
	}
}

func TestExclusiveError(t *testing.T) {
	spans := []*Span{
		span("t", "root", "", "fe", "h", KindServer, 0, 100, true),
		span("t", "mid", "root", "mw", "m", KindClient, 10, 90, true),
		span("t", "leaf", "mid", "be", "l", KindClient, 20, 80, true),
		span("t", "ok", "root", "other", "o", KindClient, 10, 20, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]int{}
	for i, s := range tr.Spans {
		byID[s.SpanID] = i
	}
	// Only the leaf's error is exclusive: root and mid errors propagate up
	// from failing children.
	if tr.ExclusiveError(byID["root"]) {
		t.Error("root error should not be exclusive")
	}
	if tr.ExclusiveError(byID["mid"]) {
		t.Error("mid error should not be exclusive")
	}
	if !tr.ExclusiveError(byID["leaf"]) {
		t.Error("leaf error should be exclusive")
	}
	if tr.ExclusiveError(byID["ok"]) {
		t.Error("non-erroring span flagged as exclusive error")
	}
	if !tr.HasError() {
		t.Error("HasError = false")
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(nil); err != ErrEmptyTrace {
		t.Fatalf("empty: %v", err)
	}
	_, err := Assemble([]*Span{
		span("t1", "a", "", "s", "n", KindServer, 0, 1, false),
		span("t2", "b", "", "s", "n", KindServer, 0, 1, false),
	})
	if err == nil {
		t.Fatal("mixed trace IDs accepted")
	}
	_, err = Assemble([]*Span{
		span("t", "a", "", "s", "n", KindServer, 0, 1, false),
		span("t", "a", "", "s", "n", KindServer, 2, 3, false),
	})
	if err == nil {
		t.Fatal("duplicate span ID accepted")
	}
	_, err = Assemble([]*Span{
		span("t", "a", "b", "s", "n", KindServer, 0, 1, false),
		span("t", "b", "a", "s", "n", KindServer, 0, 1, false),
	})
	if err == nil {
		t.Fatal("two-span cycle accepted")
	}
	_, err = Assemble([]*Span{span("t", "a", "a", "s", "n", KindServer, 0, 1, false)})
	if err == nil {
		t.Fatal("self-parent accepted")
	}
}

func TestOrphanBecomesRoot(t *testing.T) {
	spans := []*Span{
		span("t", "a", "missing", "s", "n", KindServer, 0, 10, false),
		span("t", "b", "a", "s2", "n2", KindClient, 1, 9, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("roots = %d, want 1 (orphan promoted)", len(tr.Roots()))
	}
}

func TestDepthAndAncestors(t *testing.T) {
	spans := []*Span{
		span("t", "r", "", "s0", "n", KindServer, 0, 100, false),
		span("t", "c1", "r", "s1", "n", KindClient, 1, 99, false),
		span("t", "c2", "c1", "s2", "n", KindClient, 2, 98, false),
		span("t", "c3", "c2", "s3", "n", KindClient, 3, 97, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]int{}
	for i, s := range tr.Spans {
		byID[s.SpanID] = i
	}
	if tr.Depth(byID["c3"]) != 3 {
		t.Fatalf("depth(c3) = %d", tr.Depth(byID["c3"]))
	}
	// The parent chain of c3, nearest first, is c2, c1, r.
	var anc []string
	for p := tr.Parent(byID["c3"]); p >= 0; p = tr.Parent(p) {
		anc = append(anc, tr.Spans[p].SpanID)
	}
	if !slices.Equal(anc, []string{"c2", "c1", "r"}) {
		t.Fatalf("ancestors of c3 = %v", anc)
	}
	if tr.MaxDepth() != 4 {
		t.Fatalf("MaxDepth = %d", tr.MaxDepth())
	}
}

func TestCriticalPath(t *testing.T) {
	spans := []*Span{
		span("t", "r", "", "fe", "h", KindServer, 0, 100, false),
		span("t", "fast", "r", "a", "f", KindClient, 10, 30, false),
		span("t", "slow", "r", "b", "s", KindClient, 10, 95, false),
		span("t", "slowleaf", "slow", "c", "l", KindClient, 20, 90, false),
		// Async producer ends latest but must be ignored.
		span("t", "async", "r", "q", "pub", KindProducer, 10, 99, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	path := tr.CriticalPath()
	var ids []string
	for _, i := range path {
		ids = append(ids, tr.Spans[i].SpanID)
	}
	want := []string{"r", "slow", "slowleaf"}
	if len(ids) != len(want) {
		t.Fatalf("critical path = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", ids, want)
		}
	}
}

func TestKindHelpers(t *testing.T) {
	for _, k := range []Kind{KindClient, KindServer, KindProducer, KindConsumer, KindInternal} {
		if !k.Valid() {
			t.Errorf("%q should be valid", k)
		}
	}
	if Kind("bogus").Valid() {
		t.Error("bogus kind valid")
	}
	if !KindClient.Synchronous() || KindProducer.Synchronous() || KindConsumer.Synchronous() {
		t.Error("Synchronous classification wrong")
	}
}

// TestSpanValid pins the one admission rule shared by the ingest normalize
// stage and LoadJSONL.
func TestSpanValid(t *testing.T) {
	ok := span("t", "s", "", "svc", "op", KindServer, 5, 5, false)
	if !ok.Valid() {
		t.Fatal("zero-duration span with IDs and a kind must be valid")
	}
	for name, mutate := range map[string]func(*Span){
		"empty trace ID": func(s *Span) { s.TraceID = "" },
		"empty span ID":  func(s *Span) { s.SpanID = "" },
		"unknown kind":   func(s *Span) { s.Kind = "bogus" },
		"End < Start":    func(s *Span) { s.End = s.Start - 1 },
	} {
		bad := *ok
		mutate(&bad)
		if bad.Valid() {
			t.Errorf("%s: span reported valid", name)
		}
	}
	if (*Span)(nil).Valid() {
		t.Error("nil span reported valid")
	}
}

func TestServicesAndGroupBy(t *testing.T) {
	spans := []*Span{
		span("t", "a", "", "svcB", "n", KindServer, 0, 10, false),
		span("t", "b", "a", "svcA", "n", KindClient, 1, 9, false),
		span("t", "c", "a", "svcA", "n2", KindClient, 2, 8, false),
	}
	tr, err := Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	svcs := tr.Services()
	if len(svcs) != 2 || svcs[0] != "svcA" || svcs[1] != "svcB" {
		t.Fatalf("Services = %v", svcs)
	}

	// AssembleAll groups by trace ID.
	mixed := []*Span{
		span("t1", "a", "", "s", "n", KindServer, 0, 10, false),
		span("t2", "b", "", "s", "n", KindServer, 0, 10, false),
		span("t1", "c", "a", "s", "n", KindClient, 1, 9, false),
	}
	traces, _ := AssembleAll(mixed)
	if len(traces) != 2 || traces[0].Len() != 2 || traces[1].Len() != 1 {
		t.Fatalf("AssembleAll grouped %d traces", len(traces))
	}
}

func TestAssembleAll(t *testing.T) {
	mixed := []*Span{
		span("t1", "a", "", "s", "n", KindServer, 0, 10, false),
		span("t2", "x", "", "s", "n", KindServer, 0, 10, false),
		span("t2", "x", "", "s", "n", KindServer, 5, 15, false), // dup → skip t2
		span("t3", "a", "", "s", "n", KindServer, 0, 10, false),
		span("t3", "b", "a", "s", "n", KindClient, 9, 4, false), // ends before it starts → skip t3
	}
	traces, skipped := AssembleAll(mixed)
	if len(traces) != 1 || skipped != 2 {
		t.Fatalf("AssembleAll = %d traces, %d skipped", len(traces), skipped)
	}
	if traces[0].TraceID != "t1" {
		t.Fatalf("kept trace = %q", traces[0].TraceID)
	}
}

func TestOpKey(t *testing.T) {
	a := span("t", "1", "", "svc", "op", KindClient, 0, 1, false)
	b := span("t", "2", "", "svc", "op", KindClient, 5, 6, true)
	c := span("t", "3", "", "svc", "op", KindServer, 0, 1, false)
	if a.OpKey() != b.OpKey() {
		t.Error("same operation should share OpKey")
	}
	if a.OpKey() == c.OpKey() {
		t.Error("different kinds should not share OpKey")
	}
	for _, sp := range []*Span{a, c} {
		if got := string(sp.AppendOpKey([]byte("x"))); got != "x"+sp.OpKey() {
			t.Errorf("AppendOpKey = %q, want %q", got, "x"+sp.OpKey())
		}
	}
}

// randomTree generates a random well-formed trace for property tests.
func randomTree(r *xrand.Rand, n int) []*Span {
	spans := make([]*Span, n)
	spans[0] = span("t", "s0", "", "svc0", "op", KindServer, 0, 1_000_000, false)
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		ps := spans[p]
		dur := ps.Duration() / 2
		if dur < 2 {
			dur = 2
		}
		start := ps.Start + int64(r.Intn(int(dur)))
		end := start + 1 + int64(r.Intn(int(dur)))
		if end > ps.End {
			end = ps.End
		}
		if end <= start {
			end = start + 1
		}
		spans[i] = span("t", fmt.Sprintf("s%d", i), ps.SpanID,
			fmt.Sprintf("svc%d", r.Intn(5)), "op", KindClient, start, end, r.Bernoulli(0.2))
	}
	return spans
}

// TestExclusiveDurationInvariants property-checks two invariants from the
// paper's definition: 0 <= exclusive <= duration, and the sum of exclusive
// durations of a parent and its children is at least the parent duration
// when children are fully nested (no overlap guarantee, so only the bound
// per span is universal).
func TestExclusiveDurationInvariants(t *testing.T) {
	r := xrand.New(99)
	check := func(seed uint16) bool {
		rr := r.Split(fmt.Sprint(seed))
		n := rr.IntRange(1, 40)
		tr, err := Assemble(randomTree(rr, n))
		if err != nil {
			return false
		}
		for i := range tr.Spans {
			ex := tr.ExclusiveDuration(i)
			if ex < 0 || ex > tr.Spans[i].Duration() {
				return false
			}
			if len(tr.Children(i)) == 0 && ex != tr.Spans[i].Duration() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDepthInvariant property-checks that every child is exactly one level
// deeper than its parent.
func TestDepthInvariant(t *testing.T) {
	r := xrand.New(123)
	check := func(seed uint16) bool {
		rr := r.Split(fmt.Sprint(seed))
		tr, err := Assemble(randomTree(rr, rr.IntRange(1, 60)))
		if err != nil {
			return false
		}
		for i := range tr.Spans {
			if p := tr.Parent(i); p >= 0 && tr.Depth(i) != tr.Depth(p)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAssembleMatchesReference checks the derived columns against a naive
// reference — children by a scan over parents, exclusive duration by
// sorting and merging the clipped child intervals — on spans whose children
// overlap each other and stick out of their parent on both sides.
func TestAssembleMatchesReference(t *testing.T) {
	r := xrand.New(5)
	for round := 0; round < 200; round++ {
		n := r.IntRange(1, 60)
		spans := make([]*Span, n)
		for i := range spans {
			parent := ""
			if i > 0 && r.Bernoulli(0.9) {
				parent = fmt.Sprint("s", r.Intn(i))
			}
			start := int64(r.Intn(1000))
			spans[i] = span("t", fmt.Sprint("s", i), parent, "svc", "op", KindClient, start, start+int64(r.Intn(400)), false)
		}
		tr, err := Assemble(spans)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range tr.Spans {
			var kids []int
			type iv struct{ lo, hi int64 }
			var ivs []iv
			for c, cs := range tr.Spans {
				if cs.ParentID == s.SpanID {
					kids = append(kids, c)
					if lo, hi := max(cs.Start, s.Start), min(cs.End, s.End); hi > lo {
						ivs = append(ivs, iv{lo, hi})
					}
				}
			}
			if fmt.Sprint(kids) != fmt.Sprint(tr.Children(i)) {
				t.Fatalf("round %d span %d: children %v, want %v", round, i, tr.Children(i), kids)
			}
			sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
			covered, end := int64(0), s.Start
			for _, v := range ivs {
				if v.hi > end {
					covered += v.hi - max(v.lo, end)
					end = v.hi
				}
			}
			if want := s.Duration() - covered; tr.ExclusiveDuration(i) != want {
				t.Fatalf("round %d span %d: exclusive duration %d, want %d", round, i, tr.ExclusiveDuration(i), want)
			}
		}
	}
}

// TestAssembleSteadyStateAllocs gates Assemble's allocation count (`make
// alloc`): it runs once per stored trace version and once per /score
// request trace, and must cost a constant number of allocations — the
// struct, its int block and its two exclusive columns, 4 at 50 and at 200
// spans — not one per span or per parent; the span-ID index and the BFS
// queue come from the pool.
func TestAssembleSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	for _, n := range []int{50, 200} {
		spans := randomTree(xrand.New(3), n)
		cp := make([]*Span, n)
		allocs := testing.AllocsPerRun(50, func() {
			copy(cp, spans)
			if _, err := Assemble(cp); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Fatalf("Assemble of %d spans allocates %.1f, want ≤ 5 at any size", n, allocs)
		}
	}
}

// TestPooledTableCap: an index sized for more than maxPooled spans does
// not go back to the pool, so a rare huge trace's table goes to the GC
// with its call, while a trace that large still assembles.
func TestPooledTableCap(t *testing.T) {
	big := getIndex(maxPooled + 1)
	big.put()
	for i := 0; i < 8; i++ {
		if indexes.Get().(*index) == big {
			t.Fatal("the pool handed out an index grown past its cap")
		}
	}
	tr, err := Assemble(randomTree(xrand.New(4), maxPooled+1))
	if err != nil || tr.Len() != maxPooled+1 {
		t.Fatalf("Assemble past the cap: %v", err)
	}
}

func BenchmarkAssemble1000Spans(b *testing.B) {
	r := xrand.New(7)
	spans := randomTree(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]*Span, len(spans))
		for j, s := range spans {
			c := *s
			cp[j] = &c
		}
		if _, err := Assemble(cp); err != nil {
			b.Fatal(err)
		}
	}
}
