// Command benchrunner regenerates every table and figure of the paper's
// evaluation section against the simulated substrate.
//
// Usage:
//
//	benchrunner -exp all                 # everything at quick effort
//	benchrunner -exp table3 -full        # one experiment at paper-scale effort
//	benchrunner -exp fig1,fig5 -seed 7
//
// Experiments: table1 fig1 fig3 table3 fig5 fig6 fig7 fig8 instances
// ablation. Performance is not measured here: kernel-level numbers come
// from the in-tree Benchmark* functions (`make bench-go`), stage- and
// incident-level numbers from `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth/internal/eval"
	"github.com/sleuth-rca/sleuth/internal/obs"
)

// experiment is one paper artefact: a name for -exp, a heading, and the
// function that computes and renders it.
type experiment struct {
	name, title string
	run         func(eval.Effort) (string, error)
}

// render adapts an eval function and its renderer to experiment.run.
func render[T any](compute func(eval.Effort) (T, error), show func(T) string) func(eval.Effort) (string, error) {
	return func(e eval.Effort) (string, error) {
		v, err := compute(e)
		if err != nil {
			return "", err
		}
		return show(v), nil
	}
}

var experiments = []experiment{
	{"table1", "benchmark specifications", func(e eval.Effort) (string, error) {
		t := eval.Table1(e.Seed)
		return t.String(), nil
	}},
	{"fig1", "n-sigma rule degradation with scale", render(eval.Fig1, eval.RenderFig1)},
	{"fig3", "span duration CDF", render(eval.Fig3, (*eval.Series).String)},
	{"table3", "RCA accuracy comparison", render(eval.Table3, eval.RenderTable3)},
	{"fig5", "training/inference scaling", render(eval.Fig5, eval.RenderFig5)},
	{"fig6", "service updates", render(eval.Fig6, eval.RenderFig6)},
	{"fig7", "transfer learning", render(eval.Fig7, eval.RenderFig7)},
	{"fig8", "semantic sensitivity", render(eval.Fig8, eval.RenderFig8)},
	{"instances", "instance-level (service/pod/node) accuracy", render(eval.InstanceTable, eval.RenderInstanceLevel)},
	{"ablation", "design-choice ablations", ablations},
}

func ablations(e eval.Effort) (string, error) {
	var b strings.Builder
	dmax, err := eval.AblationDmax(e)
	if err != nil {
		return "", err
	}
	b.WriteString("d_max ancestor window:\n")
	b.WriteString(eval.RenderAblationDmax(dmax))
	win, err := eval.AblationClippedReLU(e)
	if err != nil {
		return "", err
	}
	b.WriteString("\nEq. 2 aggregation window:\n")
	b.WriteString(eval.RenderAblationWindow(win))
	epsRows, err := eval.AblationEpsilon(e)
	if err != nil {
		return "", err
	}
	b.WriteString("\nHDBSCAN selection epsilon:\n")
	b.WriteString(eval.RenderAblationEpsilon(epsRows))
	return b.String(), nil
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiments, or 'all'")
		full    = flag.Bool("full", false, "paper-scale effort (slow)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		metrics = flag.Bool("metrics", false, "enable the obs registry and print it (Prometheus text) at exit")
	)
	flag.Parse()

	if *metrics {
		obs.Enable()
	}
	effort := eval.QuickEffort(*seed)
	if *full {
		effort = eval.FullEffort(*seed)
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		e = strings.TrimSpace(e)
		known := e == "all"
		for _, x := range experiments {
			if e == "all" || e == x.name {
				selected[x.name] = true
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", e)
			os.Exit(2)
		}
	}

	for _, x := range experiments {
		if !selected[x.name] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", strings.ToUpper(x.name), x.title)
		start := time.Now()
		out, err := x.run(effort)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s in %s)\n", x.name, time.Since(start).Round(time.Millisecond))
	}

	if *metrics {
		obs.WritePrometheus(os.Stdout, obs.Global())
	}
}
