package main

import (
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs/alert"
)

// httpClient builds the short-timeout client the debug-surface commands
// share.
func httpClient() *http.Client { return &http.Client{Timeout: 10 * time.Second} }

// cmdAlerts fetches a server's /debug/alerts document and renders the
// watchdog state: one row per rule, firing first, with the evaluation
// value and the exemplar trace ID a firing alert links to (resolvable
// via `sleuthctl trace <id>`).
func cmdAlerts(args []string) error {
	fs := flag.NewFlagSet("alerts", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:4318", "base URL of a server exposing /debug/alerts")
	firingOnly := fs.Bool("firing", false, "show only firing and pending alerts")
	_ = fs.Parse(args)

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	var status alert.StatusResponse
	if err := fetchJSON(httpClient(), base+"/debug/alerts", &status); err != nil {
		return fmt.Errorf("alerts: %w", err)
	}
	if !status.Enabled {
		fmt.Println("watchdog disabled on", base)
		return nil
	}
	fmt.Printf("watchdog on %s: %d rules, %d firing, %d pending (tick %.0fs",
		base, status.Rules, status.Firing, status.Pending, status.IntervalSec)
	if status.LastTick > 0 {
		fmt.Printf(", last tick %s ago", time.Since(time.Unix(0, status.LastTick)).Round(time.Second))
	}
	fmt.Println(")")
	fmt.Printf("%-34s %-9s %-8s %-10s %12s  %s\n",
		"alert", "state", "severity", "kind", "value", "trace")
	for _, a := range status.Alerts {
		if *firingOnly && a.State != alert.StateFiring && a.State != alert.StatePending {
			continue
		}
		fmt.Printf("%-34s %-9s %-8s %-10s %12.4g  %s\n",
			a.Name, a.State, a.Severity, a.Kind, a.Value, a.TraceID)
	}
	return nil
}
