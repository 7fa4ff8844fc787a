// Command collector runs the HTTP trace collector (§4): it accepts
// OTLP-style, Zipkin-style and Jaeger-style JSON on the standard endpoint
// paths and persists the spans to a JSONL file on shutdown or on demand.
//
// Usage:
//
//	collector -addr :4318 -out spans.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sleuth-rca/sleuth/internal/collector"
	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
	"github.com/sleuth-rca/sleuth/internal/store"
)

func main() {
	defaults := ingest.DefaultConfig()
	var (
		addr      = flag.String("addr", ":4318", "listen address")
		out       = flag.String("out", "spans.jsonl", "spans JSONL written on shutdown")
		enableObs = flag.Bool("obs", true, "enable the metrics registry and /debug endpoints")
		accessLog = flag.Bool("access-log", false, "log one structured line per request")
		sample    = flag.Duration("sample", 10*time.Second,
			"metric sampling interval for /debug/series (0 disables)")
		watchdog = flag.Bool("watchdog", true,
			"run the self-watchdog alert engine over the metrics registry (needs -obs)")
		alertRules = flag.String("alert-rules", "",
			"JSON watchdog rule file loaded on top of the default pack")
		alertTick = flag.Duration("alert-tick", 15*time.Second,
			"watchdog evaluation interval")

		ingestWorkers = flag.Int("ingest-workers", defaults.Workers,
			"concentrator/sampler/writer shards")
		ingestSample = flag.Float64("ingest-sample", defaults.SampleRate,
			"tail-sampling keep rate for healthy traces, 0..1 (error and latency-outlier traces are always kept)")
		ingestTTL = flag.Duration("ingest-ttl", defaults.TraceTTL,
			"how long a trace window stays open after its last span")
		ingestTailPct = flag.Float64("ingest-tail-pct", defaults.TailPercentile,
			"OpSummaries percentile above which a root duration is a kept outlier")
	)
	flag.Parse()

	if *enableObs {
		obs.Enable()
		if *sample > 0 {
			obs.StartSampler(*sample)
		}
	}
	st := store.New()
	cfg := defaults
	cfg.Workers = *ingestWorkers
	cfg.SampleRate = *ingestSample
	if cfg.SampleRate == 0 {
		cfg.SampleRate = -1 // explicit 0 sheds every healthy trace
	}
	cfg.TraceTTL = *ingestTTL
	cfg.TailPercentile = *ingestTailPct
	pipe := ingest.NewPipeline(st, cfg)
	col := collector.NewWithPipeline(st, pipe)
	if *accessLog {
		col.AccessLog = obs.NewAccessLogger()
	}

	// Self-watchdog: the default collector pack plus any operator rule
	// file, evaluated on a background tick. A disabled watchdog (or
	// disabled obs) yields a nil engine — every call below is a no-op and
	// the /readyz check always passes.
	var engine *alert.Engine
	if *watchdog {
		engine = alert.New(obs.Global(), *alertTick)
		if err := engine.Add(alert.CollectorRules()...); err != nil {
			fmt.Fprintf(os.Stderr, "collector: %v\n", err)
			os.Exit(1)
		}
		if *alertRules != "" {
			rules, err := alert.LoadRulesFile(*alertRules)
			if err == nil {
				err = engine.Add(rules...)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "collector: %v\n", err)
				os.Exit(1)
			}
		}
		engine.Register()
		engine.Start()
	}
	col.Ready = append(col.Ready, engine.ReadyCheck())
	srv := &http.Server{Addr: *addr, Handler: col.Handler(), ReadHeaderTimeout: 10 * time.Second}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		fmt.Printf("collector listening on %s (POST /v1/traces, /api/v2/spans, /api/traces; ingest: %d workers, sample=%.2f, ttl=%s, store shards=%d)\n",
			*addr, cfg.Workers, *ingestSample, cfg.TraceTTL, st.Shards())
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "collector: %v\n", err)
			os.Exit(1)
		}
	}()
	<-done

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	engine.Stop()
	col.Close() // drain open trace windows into the store
	obs.StopSampler()
	if err := st.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "collector: saving spans: %v\n", err)
		os.Exit(1)
	}
	stats := pipe.Stats()
	fmt.Printf("saved %d spans (%d traces) to %s (written=%d shed=%d dropped=%d)\n",
		st.SpanCount(), st.TraceCount(), *out, stats.SpansWritten, stats.SpansShed, stats.SpansDropped)
}
