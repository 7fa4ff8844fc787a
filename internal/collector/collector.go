// Package collector implements the trace ingestion endpoint of §4: an HTTP
// server accepting OpenTelemetry-style, Zipkin-style and Jaeger-style JSON
// payloads and feeding the decoded spans into the staged streaming ingest
// pipeline (internal/ingest) in front of the storage engine — the
// single-process equivalent of the paper's OpenTelemetry collector cluster.
//
// The handler is the pipeline's receiver stage: it reads the body through
// otel.ReadBody, the pooled reader /score shares, bounded by
// http.MaxBytesReader (oversized payloads get a 413 and a
// collector.body_too_large count instead of silent truncation), decodes and
// validates synchronously so clients see accept/reject/drop counts in the
// response, gives the buffer back (the spans copy what they keep out of
// it), then hands the spans to the concentrator/sampler/writer stages.
// Whole-payload decode failures and individually malformed spans are
// counted in the process metrics registry (collector.decode_errors,
// collector.spans_rejected / collector.spans_accepted) and surfaced in the
// ingest response instead of being silently dropped. The handler also
// exposes Prometheus /metrics, the /debug JSON surfaces and /debug/pprof via
// internal/obs.
package collector

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"

	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Collector ingests trace payloads into a store through a staged pipeline.
type Collector struct {
	Store *store.Store
	// Ingest is the staged pipeline behind the HTTP receiver. Stop it (or
	// call Close) to drain open trace windows into the store.
	Ingest *ingest.Pipeline
	// AccessLog, if non-nil, receives one structured line per request.
	AccessLog *log.Logger
	// Ready holds extra readiness checks served on /readyz alongside the
	// built-in ingest-queue saturation check (a main adds the watchdog's
	// ReadyCheck here).
	Ready []obs.ReadyCheck
}

// maxBodyBytes bounds accepted payload sizes.
const maxBodyBytes = 32 << 20

// readyQueueSaturation is the /readyz bound on ingest queue occupancy: a
// collector whose queues are ≥ 90% full is shedding, not serving.
const readyQueueSaturation = 0.9

// New creates a Collector feeding the given store through a pipeline with
// the default configuration.
func New(st *store.Store) *Collector {
	return NewWithPipeline(st, ingest.NewPipeline(st, ingest.DefaultConfig()))
}

// NewWithPipeline creates a Collector over an explicitly configured
// pipeline. The pipeline should write into st (the /stats counts read it).
func NewWithPipeline(st *store.Store, p *ingest.Pipeline) *Collector {
	return &Collector{Store: st, Ingest: p}
}

// Close drains and stops the ingest pipeline.
func (c *Collector) Close() { c.Ingest.Stop() }

// statsResponse is the /stats document: store totals plus the pipeline's
// drop/sample accounting.
type statsResponse struct {
	Spans  int          `json:"spans"`
	Traces int          `json:"traces"`
	Ingest ingest.Stats `json:"ingest"`
}

// Handler returns the HTTP mux with the three protocol endpoints:
//
//	POST /v1/traces      — OTLP-style JSON
//	POST /api/v2/spans   — Zipkin-style JSON
//	POST /api/traces     — Jaeger-style JSON
//	GET  /healthz        — liveness + build info (JSON)
//	GET  /readyz         — readiness: queue saturation + injected checks
//	GET  /stats          — span/trace counts + ingest pipeline counters
//	GET  /metrics        — Prometheus text exposition
//	GET  /debug/alerts   — watchdog alert states (JSON)
//	GET  /debug/series   — time-series ring buffers (JSON)
//	GET  /debug/traces   — recent request self-traces (JSON)
//	GET  /debug/pprof/…  — runtime profiles
//
// Every request flows through the obs access-log middleware, which assigns
// (or propagates) an X-Request-ID, continues an incoming W3C traceparent
// into a per-request self-trace (the ingest handler's decode/submit stages
// appear as child spans), and records request counters/latency with
// trace-ID exemplars.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces", c.ingest("otlp", otel.DecodeOTLP))
	mux.HandleFunc("/api/v2/spans", c.ingest("zipkin", otel.DecodeZipkin))
	mux.HandleFunc("/api/traces", c.ingest("jaeger", otel.DecodeJaeger))
	mux.HandleFunc("/healthz", obs.HealthHandler("collector"))
	checks := append([]obs.ReadyCheck{{
		Name: "ingest-queue",
		Check: func() error {
			if sat := c.Ingest.QueueSaturation(); sat >= readyQueueSaturation {
				return fmt.Errorf("ingest queues %.0f%% full", sat*100)
			}
			return nil
		},
	}}, c.Ready...)
	mux.HandleFunc("/readyz", obs.ReadyHandler("collector", checks...))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(statsResponse{
			Spans:  c.Store.SpanCount(),
			Traces: c.Store.TraceCount(),
			Ingest: c.Ingest.Stats(),
		})
	})
	obs.Mount(mux)
	return obs.AccessLog("collector", c.AccessLog, mux)
}

// ingest builds a POST handler around a decoder — the receiver stage of
// the pipeline. The self-trace stage name carrying the protocol is built
// here, outside the request path.
func (c *Collector) ingest(proto string, decode func([]byte) ([]*trace.Span, error)) http.HandlerFunc {
	decodeStage := "decode." + proto
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// MaxBytesReader errors out past the limit instead of silently
		// truncating the payload mid-span (which would surface as a
		// nonsensical decode error and miscount the client's data).
		body, err := otel.ReadBody(w, r, maxBodyBytes)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusRequestEntityTooLarge)
				fmt.Fprintf(w, `{"accepted":0,"error":"body exceeds %d bytes"}`+"\n", tooLarge.Limit)
				return
			}
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		// The self-trace spans are nil with obs disabled; their annotations
		// are formatted only when there is a span to carry them.
		dsp := obs.SpanFrom(r.Context()).Child(decodeStage)
		dt := obs.H("ingest.decode_us").Start()
		spans, err := decode(body.Bytes())
		dt.Stop()
		if dsp != nil {
			dsp.Annotate("http.body_bytes", strconv.Itoa(len(body.Bytes())))
		}
		body.Release()
		dsp.End()
		if err != nil {
			dsp.SetError(true)
			// A payload that does not decode at all is one decode error;
			// the count is surfaced in the response body alongside the
			// error so lossy clients can see drops, not just 400s.
			obs.C("collector.decode_errors").Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"accepted":0,"decodeErrors":1,"error":%q}`+"\n", err.Error())
			return
		}
		ssp := obs.SpanFrom(r.Context()).Child("pipeline.submit")
		accepted, rejected, dropped := c.Ingest.Submit(spans)
		if ssp != nil {
			ssp.Annotate("spans.accepted", strconv.Itoa(accepted))
		}
		ssp.End()
		w.Header().Set("Content-Type", "application/json")
		if dropped > 0 && accepted == 0 {
			// Every span hit a full queue: tell the client to back off.
			w.WriteHeader(http.StatusTooManyRequests)
		} else {
			w.WriteHeader(http.StatusAccepted)
		}
		fmt.Fprintf(w, `{"accepted":%d,"rejected":%d,"dropped":%d}`+"\n", accepted, rejected, dropped)
	}
}
