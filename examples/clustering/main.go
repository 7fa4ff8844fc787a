// Trace clustering exploration (§3.3): encode traces as weighted span
// sets, examine the Eq. 1 distance between same-mode and cross-mode
// anomalies, run HDBSCAN, and inspect the failure-mode representatives.
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"

	sleuth "github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/cluster"
)

func main() {
	app := sleuth.NewSyntheticApp(64, 21)
	world := sleuth.NewWorld(app, 21)

	// Two distinct failure modes.
	victimA := app.Services[app.ServiceAtCallDepth(1)].Name
	victimB := app.Services[app.ServiceAtCallDepth(2)].Name
	planA, err := world.InjectFault(victimA, sleuth.Fault{Type: chaos.FaultCPU, SlowFactor: 50})
	if err != nil {
		log.Fatal(err)
	}
	planB, err := world.InjectFault(victimB, sleuth.Fault{Type: chaos.FaultNetwork, NetLatencyMicros: 250_000, ErrorProb: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	incA, err := world.SimulateIncident(planA, 30, 22)
	if err != nil {
		log.Fatal(err)
	}
	incB, err := world.SimulateIncident(planB, 30, 23)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mode A: CPU fault on %s; mode B: network fault on %s\n", victimA, victimB)

	// Keep only the traces each fault materially affected.
	var traces []*sleuth.Trace
	var mode []string
	for i, tr := range incA.Traces {
		if len(incA.Truth[i]) > 0 {
			traces = append(traces, tr)
			mode = append(mode, "A")
		}
	}
	nA := len(traces)
	for i, tr := range incB.Traces {
		if len(incB.Truth[i]) > 0 {
			traces = append(traces, tr)
			mode = append(mode, "B")
		}
	}
	fmt.Printf("%d affected traces (A=%d, B=%d)\n", len(traces), nA, len(traces)-nA)

	// The Eq. 1 distance: same-mode traces should sit closer than
	// cross-mode traces.
	sets := cluster.TraceSets(traces, cluster.DefaultMaxAncestors)
	m := cluster.Pairwise(sets)
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < len(traces); i++ {
		for j := i + 1; j < len(traces); j++ {
			if mode[i] == mode[j] {
				sameSum += m.At(i, j)
				sameN++
			} else {
				crossSum += m.At(i, j)
				crossN++
			}
		}
	}
	fmt.Printf("mean distance: same-mode %.3f, cross-mode %.3f\n", sameSum/float64(sameN), crossSum/float64(crossN))

	// Cluster and inspect.
	labels := cluster.HDBSCAN(m, cluster.DefaultOptions())
	fmt.Printf("HDBSCAN: %s\n", cluster.Summary(labels))
	medoids := cluster.Medoids(m, labels)
	for label := range len(medoids) {
		idx := medoids[label]
		counts := map[string]int{}
		for i, l := range labels {
			if l == label {
				counts[mode[i]]++
			}
		}
		rep := traces[idx]
		fmt.Printf("  cluster %d (A=%d B=%d): representative %s, %d spans, %dµs, errors=%v\n",
			label, counts["A"], counts["B"], rep.TraceID, rep.Len(), rep.RootDuration(), rep.HasError())
	}
}
