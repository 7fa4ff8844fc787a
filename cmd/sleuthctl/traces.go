// sleuthctl trace / traces: query the self-trace rings that
// every obs-enabled component serves at /debug/traces. `traces` lists what
// the rings hold (newest or slowest first); `trace <id>` fetches one trace
// from every listed component, merges the spans — each process only holds
// the subtree it executed — and prints the joined distributed tree.

package main

import (
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// debugAddrs splits the -addr list and normalises entries to base URLs.
func debugAddrs(addrs string) []string {
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		out = append(out, strings.TrimSuffix(a, "/"))
	}
	return out
}

func cmdTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	addr := fs.String("addr", "localhost:4318", "comma-separated component addresses to query")
	slowest := fs.Bool("slowest", false, "order by root duration instead of recency")
	n := fs.Int("n", 20, "max rows to print (0 = all)")
	_ = fs.Parse(args)
	client := &http.Client{Timeout: 5 * time.Second}
	var rows []obs.TraceSummary
	for _, base := range debugAddrs(*addr) {
		url := base + "/debug/traces"
		if *slowest {
			url += "?slowest=1"
		}
		var resp obs.TracesListResponse
		if err := fetchJSON(client, url, &resp); err != nil {
			fmt.Fprintf(flag.CommandLine.Output(), "sleuthctl: %v\n", err)
			continue
		}
		rows = append(rows, resp.Traces...)
	}
	if len(rows) == 0 {
		fmt.Println("no self-traces resident (is the component running with -obs?)")
		return nil
	}
	// Re-sort the merged listing: per-component order does not survive a
	// multi-address merge.
	if *slowest {
		sort.Slice(rows, func(i, j int) bool { return rows[i].DurationUS > rows[j].DurationUS })
	} else {
		sort.Slice(rows, func(i, j int) bool { return rows[i].StartUS > rows[j].StartUS })
	}
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	fmt.Printf("%-32s  %-28s  %5s  %10s  %-5s  %s\n",
		"TRACE", "ROOT", "SPANS", "DURATION", "ERROR", "SERVICES")
	for _, r := range rows {
		errMark := ""
		if r.Error {
			errMark = "yes"
		}
		fmt.Printf("%-32s  %-28s  %5d  %8dµs  %-5s  %s\n",
			r.TraceID, r.Root, r.Spans, r.DurationUS, errMark,
			strings.Join(r.Services, ","))
	}
	fmt.Println("\ninspect one: sleuthctl trace <trace-id>")
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "localhost:4318",
		"comma-separated component addresses; spans found on each are merged into one tree")
	// Accept the trace ID before or after the flags: stdlib flag parsing
	// stops at the first positional argument, so `trace <id> -addr …`
	// would otherwise silently drop -addr.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	_ = fs.Parse(args)
	if id == "" {
		id = fs.Arg(0)
	}
	if id == "" {
		return fmt.Errorf("trace: usage: sleuthctl trace [-addr host:port,host:port] <trace-id>")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	seen := map[string]bool{}
	var spans []*trace.Span
	found := 0
	for _, base := range debugAddrs(*addr) {
		var part []*trace.Span
		if err := fetchJSON(client, base+"/debug/traces?id="+id, &part); err != nil {
			continue // absent from this component's ring is normal
		}
		found++
		for _, sp := range part {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				spans = append(spans, sp)
			}
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s not found on %s (evicted, shed, or wrong address?)", id, *addr)
	}
	tr, err := trace.Assemble(spans)
	if err != nil {
		return fmt.Errorf("trace %s: %w", id, err)
	}
	fmt.Printf("trace %s: %d spans from %d component(s), %dµs end-to-end\n",
		tr.TraceID, tr.Len(), found, tr.RootDuration())
	printSpanTree(tr)
	return nil
}

// printSpanTree renders an assembled trace as an indented tree with
// per-span service, kind, duration and exclusive duration, followed by the
// critical path — the same machinery Sleuth applies to application traces,
// pointed at its own execution.
func printSpanTree(tr *trace.Trace) {
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := tr.Spans[i]
		marks := ""
		if sp.Error {
			marks += " ERROR"
		}
		if rid := sp.Attrs["request.id"]; rid != "" {
			marks += " id=" + rid
		}
		pad := 40 - 2*depth - len(sp.Name)
		if pad < 1 {
			pad = 1
		}
		fmt.Printf("  %s%s%s%10dµs  (exclusive %dµs)  [%s/%s]%s\n",
			strings.Repeat("  ", depth), sp.Name, strings.Repeat(" ", pad),
			sp.Duration(), tr.ExclusiveDuration(i), sp.Service, sp.Kind, marks)
		for _, c := range tr.Children(i) {
			walk(c, depth+1)
		}
	}
	for _, r := range tr.Roots() {
		walk(r, 0)
	}
	var path []string
	for _, i := range tr.CriticalPath() {
		path = append(path, tr.Spans[i].Name)
	}
	fmt.Printf("  critical path: %s\n", strings.Join(path, " → "))
}
