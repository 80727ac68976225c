package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The output checks compare each run against computations of the
// benchmark's own or against properties the method must have, never
// against a stored copy of an earlier run's output.

// paperDeliveryBand brackets the paper's Fig. 3(a) delivery rate of
// ≈0.90 for combined pull at ε=0.1 (N=100, Π=70, πmax=2).
var paperDeliveryBand = [2]float64{0.86, 0.94}

// poissonSigmas is the half-width, in standard deviations, of the band
// the publish count must fall in. Six sigmas make a false alarm
// practically impossible while still catching a rate off by a tenth.
const poissonSigmas = 6

// plannedDowntime sums the downtime a fault plan injects before end.
func plannedDowntime(plan *faults.Plan, end sim.Time) sim.Time {
	if plan == nil {
		return 0
	}
	var total sim.Time
	for _, a := range plan.Actions {
		if a.Kind != faults.NodeCrash || a.At >= end {
			continue
		}
		until := end
		if a.Downtime > 0 && a.At+a.Downtime < end {
			until = a.At + a.Downtime
		}
		total += until - a.At
	}
	return total
}

// expectedPublishes is the mean number of publishes of a run: every
// publishing dispatcher publishes at PublishRate while it is up.
func expectedPublishes(p scenario.Params) float64 {
	pubs := p.N
	if p.Publishers > 0 {
		pubs = p.Publishers
	}
	up := float64(pubs)*p.Duration.Seconds() - plannedDowntime(p.FaultPlan, p.Duration).Seconds()
	return p.PublishRate * up
}

// minRoutedLatency is the latency of the fastest possible routed
// delivery: one hop's transmission plus propagation time.
func minRoutedLatency(p scenario.Params) time.Duration {
	return p.Network.TxTime(&wire.Event{}) + p.Network.PropDelay
}

// checkSim returns every way one simulated operation's outputs break
// the properties of the method. ref is the first operation of the same
// (workload, seed), which the simulator must reproduce exactly; nil for
// the first operation itself.
func checkSim(w string, p scenario.Params, op simOp, ref *simOp) []string {
	var bad []string
	o := op.Out
	mean := expectedPublishes(p)
	if d := math.Abs(float64(o.EventsPublished) - mean); d > poissonSigmas*math.Sqrt(mean)+1 {
		bad = append(bad, fmt.Sprintf("published %d events, outside %.0f ± %.0f", o.EventsPublished, mean, poissonSigmas*math.Sqrt(mean)+1))
	}
	if o.Deliveries == 0 || o.Deliveries > o.ExpectedDeliveries {
		bad = append(bad, fmt.Sprintf("%d deliveries for %d expected", o.Deliveries, o.ExpectedDeliveries))
	}
	if o.Recoveries > o.Deliveries {
		bad = append(bad, fmt.Sprintf("%d recoveries exceed %d deliveries", o.Recoveries, o.Deliveries))
	}
	if min := minRoutedLatency(p); time.Duration(op.RoutedP50Ns) < min {
		bad = append(bad, fmt.Sprintf("routed latency p50 %v below one hop's %v", time.Duration(op.RoutedP50Ns), min))
	}
	if w == paperLossy && (op.DeliveryRate < paperDeliveryBand[0] || op.DeliveryRate > paperDeliveryBand[1]) {
		bad = append(bad, fmt.Sprintf("delivery rate %.4f outside the paper's band [%.2f, %.2f]", op.DeliveryRate, paperDeliveryBand[0], paperDeliveryBand[1]))
	}
	if ref != nil && (op.Digest != ref.Digest || op.Out != ref.Out) {
		bad = append(bad, fmt.Sprintf("result %s differs from %s of the same seed", op.Digest, ref.Digest))
	}
	return bad
}
