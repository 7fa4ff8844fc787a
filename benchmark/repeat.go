package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns is the repeatability tool: two sets of n runs per workload,
// one process per run and run i of either set on seed o.seed+i, then per
// metric × workload the first set's median, quartile distance and spread
// against the bound, and how much worse the second set's median is. It is
// what the driver does to accept the benchmark; run it before changing a
// size or a bound.
func repeatRuns(o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	bad := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				args := []string{
					"-workload", name, "-seed", strconv.FormatUint(o.seed+uint64(i), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-ops", strconv.Itoa(o.ops),
					"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s %v: %w", self, args, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s %v: last line is not a result: %w", self, args, err)
				}
				if !res.Correct {
					bad++
				}
				for k, m := range res.Metrics {
					sets[s][k] = append(sets[s][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d run %d/%d: correct=%t failed=%d/%d\n", name, s+1, i+1, n, res.Correct, res.Failed, res.Attempted)
			}
		}
		fmt.Printf("\n%s — %d runs per set, seeds %d..%d\n", name, n, o.seed, o.seed+uint64(n)-1)
		fmt.Printf("%-36s %12s %12s %8s %6s  %-6s %12s %8s  %s\n", "metric", "median", "iqr", "spread", "bound", "", "median2", "worse", "")
		for _, d := range defs {
			a, b := sets[0][d.Name], sets[1][d.Name]
			q1, q3 := 0.0, 0.0
			if len(a) >= 2 {
				q1, q3 = quartiles(a)
			}
			sp, worse := spread(a), worseBy(median(a), median(b), d.Better)
			spreadVerdict, driftVerdict := "", ""
			if d.Bound > 0 {
				// The driver holds every spread but set-up's to its bound,
				// and every median's drift, set-up's too.
				spreadVerdict, driftVerdict = verdict(sp <= d.Bound || d.Name == "setup_s"), verdict(worse <= d.Bound)
				if spreadVerdict == "FAIL" || driftVerdict == "FAIL" {
					bad++
				}
			}
			fmt.Printf("%-36s %12.4f %12.4f %8.4f %6.2f  %-6s %12.4f %+8.4f  %s\n",
				d.Name, median(a), q3-q1, sp, d.Bound, spreadVerdict, median(b), worse, driftVerdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d incorrect runs or metrics outside their bound", bad)
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
