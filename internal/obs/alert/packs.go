// Default rule packs: the watchdog rules each component ships with
// whenever its sampler runs. Names are stable identifiers (they key the alert state
// and the Prometheus ALERTS exposition); thresholds are deliberately
// conservative defaults an operator overrides with a -alert-rules file.

package alert

import "time"

// CollectorRules watches the ingest path: queue saturation, drop storms
// and malformed-payload bursts.
func CollectorRules() []Rule {
	return []Rule{
		{
			Name:      "collector_ingest_drop_storm",
			Kind:      KindThreshold,
			Series:    "ingest.spans_dropped",
			Severity:  "critical",
			Component: "collector",
			Window:    Duration(5 * time.Minute),
			Agg:       AggDelta,
			Op:        OpGT,
			Value:     0,
			MinCount:  2,
			For:       Duration(30 * time.Second),
		},
		{
			Name:      "collector_decode_error_burst",
			Kind:      KindThreshold,
			Series:    "collector.decode_errors",
			Severity:  "warning",
			Component: "collector",
			Window:    Duration(5 * time.Minute),
			Agg:       AggDelta,
			Op:        OpGT,
			Value:     10,
			MinCount:  2,
		},
		{
			Name:      "collector_ingest_queue_saturated",
			Kind:      KindThreshold,
			Series:    "ingest.queue_depth",
			Severity:  "warning",
			Component: "collector",
			Window:    Duration(1 * time.Minute),
			Agg:       AggMean,
			Op:        OpGT,
			Value:     192, // 75% of the 256-slot queue
			For:       Duration(1 * time.Minute),
		},
	}
}

// ModelServerRules watches serving: score-latency SLO burn and request
// error-rate burn.
func ModelServerRules() []Rule {
	return []Rule{
		{
			Name:      "modelserver_score_p99_burn",
			Kind:      KindBurnRate,
			Series:    "modelserver.score_us.p99",
			Severity:  "critical",
			Component: "modelserver",
			// SLO: 99% of sampled p99 readings stay under 50 ms.
			Target:      0.99,
			Objective:   50000, // µs
			ShortWindow: Duration(5 * time.Minute),
			LongWindow:  Duration(1 * time.Hour),
			BurnFactor:  2,
			MinCount:    3,
		},
		{
			Name:      "modelserver_error_rate_burn",
			Kind:      KindBurnRate,
			Severity:  "critical",
			Component: "modelserver",
			// SLO: 99.5% of requests answer without a 5xx.
			Target:      0.995,
			NumSeries:   "modelserver.http.status_5xx",
			DenSeries:   "modelserver.http.requests",
			ShortWindow: Duration(5 * time.Minute),
			LongWindow:  Duration(1 * time.Hour),
			BurnFactor:  2,
			MinCount:    3,
		},
	}
}

// TrainingRules watches a training run driven through sleuthctl train:
// loss spikes and gradient-norm blowups.
func TrainingRules() []Rule {
	return []Rule{
		{
			Name:      "training_loss_spike",
			Kind:      KindThreshold,
			Series:    "core.train.epoch.loss",
			Severity:  "warning",
			Component: "training",
			Window:    Duration(30 * time.Minute),
			Agg:       AggLastOverMean,
			Op:        OpGT,
			Value:     2, // latest epoch loss doubled the window mean
			MinCount:  3,
		},
		{
			Name:      "training_grad_norm_blowup",
			Kind:      KindThreshold,
			Series:    "core.train.epoch.grad_norm",
			Severity:  "critical",
			Component: "training",
			Window:    Duration(30 * time.Minute),
			Agg:       AggLastOverMean,
			Op:        OpGT,
			Value:     10,
			MinCount:  3,
		},
	}
}
