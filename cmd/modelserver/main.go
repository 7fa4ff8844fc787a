// Command modelserver runs the centralized model server of §4: an HTTP
// registry maintaining the life cycle of trained Sleuth models — publish,
// fetch (latest or pinned version), lineage, retire — and scores traces
// with them. Each score request runs its own traces through one
// ScoreBatch call on its handler goroutine; nothing about that is tunable.
//
// Usage:
//
//	modelserver -addr :8500 -dir ./models
//
// API:
//
//	GET  /models                          list all versions (JSON)
//	POST /models/{name}?trainedOn=...&parent={name}@{ver}   publish gob blob
//	GET  /models/{name}/latest            newest non-retired blob
//	GET  /models/{name}/{version}         pinned blob
//	GET  /models/{name}/{version}/lineage ancestry (JSON)
//	POST /models/{name}/{version}/retire  retire a version
//	POST /models/{name}/{version}/score   batched inference (JSON spans)
//	GET  /healthz                         liveness + build info (JSON)
//	GET  /readyz                          readiness: cache warm + watchdog (JSON)
//	GET  /metrics                         Prometheus text exposition (incl. ALERTS)
//	GET  /debug/alerts                    watchdog alert states (JSON)
//	GET  /debug/series                    time-series ring buffers (JSON)
//	GET  /debug/traces                    recent request self-traces (JSON)
//	GET  /debug/pprof/...                 runtime profiles
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
)

func main() {
	var (
		addr      = flag.String("addr", ":8500", "listen address")
		dir       = flag.String("dir", "models", "registry directory")
		enableObs = flag.Bool("obs", true, "enable the metrics registry and /debug endpoints")
		accessLog = flag.Bool("access-log", true, "log one structured line per request")
		sample    = flag.Duration("sample", 10*time.Second,
			"metric sampling interval for /debug/series and the watchdog (0 disables both)")
		alertRules = flag.String("alert-rules", "",
			"JSON watchdog rule file loaded on top of the default pack")
	)
	flag.Parse()
	var sampler *obs.Sampler
	if *enableObs {
		obs.Enable()
		if *sample > 0 {
			sampler = obs.StartSampler(*sample)
		}
	}
	reg, err := modelserver.Open(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
		os.Exit(1)
	}
	server := &modelserver.Server{Registry: reg}
	if *accessLog {
		server.AccessLog = obs.NewAccessLogger()
	}

	// Preload served model versions so /readyz flips ready only once the
	// first score request would hit the in-memory cache.
	warmed := reg.WarmCache()

	// Self-watchdog: default serving pack (p99 burn rate, error-rate burn)
	// plus any operator rule file, evaluated at the end of
	// every sampler sweep; nil (inert) without a sampler.
	engine := alert.New(sampler)
	if err := engine.Add(alert.ModelServerRules()...); err != nil {
		fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
		os.Exit(1)
	}
	if *alertRules != "" {
		rules, err := alert.LoadRulesFile(*alertRules)
		if err == nil {
			err = engine.Add(rules...)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
			os.Exit(1)
		}
	}
	engine.Register()
	server.Ready = append(server.Ready, engine.ReadyCheck())
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("model server listening on %s (registry %s, %d models, %d warmed, watchdog rules=%d)\n",
		*addr, *dir, len(reg.List()), warmed, engine.RuleCount())
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "modelserver: %v\n", err)
		os.Exit(1)
	}
}
