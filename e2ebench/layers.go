package main

import (
	"errors"
	"fmt"
)

// perLayer lists the per-layer metrics the traced run prints, with the
// end-to-end metric and workload each one should move (see README.md).
// A metric of a layer a workload does not run reads 0 on it.
var perLayer = []metricSpec{
	// wall time of the untraced run: whole Run call, or on live-paced
	// the last set-up to the drain
	{"run.wall_s", "s", "lower"},
	// sim → cpu_s on paper-lossy and churn-scalefree
	{"sim.kernel_events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"run.kernel_s", "s", "lower"},
	// topology
	{"setup.topology_s", "s", "lower"},
	{"topology.mutations", "count", "lower"},
	// network
	{"setup.network_s", "s", "lower"},
	{"net.msgs_sent", "count", "lower"},
	{"net.msgs_lost", "count", "lower"},
	{"net.bytes_sent", "B", "lower"},
	{"net.event_msgs", "count", "lower"},
	{"net.gossip_msgs", "count", "lower"},
	{"net.control_msgs", "count", "lower"},
	// pubsub
	{"setup.pubsub_nodes_s", "s", "lower"},
	{"setup.pubsub_install_s", "s", "lower"},
	{"setup.subindex_s", "s", "lower"},
	{"run.pubsub_self_s", "s", "lower"},
	{"run.publish_s", "s", "lower"},
	{"pubsub.handled_msgs", "count", "lower"},
	// core
	{"setup.core_engines_s", "s", "lower"},
	{"run.core_msg_s", "s", "lower"},
	{"core.rounds_started", "count", "lower"},
	{"core.rounds_skipped", "count", "lower"},
	{"core.losses_detected", "count", "lower"},
	{"core.recovered", "count", "higher"},
	{"core.duplicate_recoveries", "count", "lower"},
	{"core.requests_sent", "count", "lower"},
	{"core.retransmits_served", "count", "lower"},
	{"core.recovered_per_retransmit", "ratio", "higher"},
	{"core.idle_round_share", "ratio", "lower"},
	// metrics
	{"run.metrics_s", "s", "lower"},
	{"metrics.tracker_calls", "count", "lower"},
	// adapt
	{"adapt.adjustments", "count", "lower"},
	{"adapt.mode_switches", "count", "lower"},
	{"adapt.walk_rounds", "count", "lower"},
	// faults
	{"faults.crashes", "count", "lower"},
	{"faults.restarts", "count", "lower"},
	// repair
	{"repair.rounds", "count", "lower"},
	{"repair.links_added", "count", "lower"},
	{"repair.proposals_rejected", "count", "lower"},
	{"repair.reattach_mean_ms", "ms", "lower"},
	// Go runtime
	{"setup.alloc_mb", "MB", "lower"},
	{"run.alloc_mb", "MB", "lower"},
	{"run.gc_cpu_s", "s", "lower"},
	// residual and tracing cost
	{"run.residual_s", "s", "lower"},
	{"trace.overhead", "ratio", "lower"},
	// live
	{"live.publish_us", "us", "lower"},
	{"live.events_sent", "count", "lower"},
	{"live.gossip_sent", "count", "lower"},
	{"live.deliveries", "count", "higher"},
	{"live.recovered", "count", "lower"},
	{"live.cpu_us_per_delivery", "us", "lower"},
	{"live.idle_cpu_s", "s", "lower"},
	{"live.p50_ms", "ms", "lower"},
	{"live.p99_ms", "ms", "lower"},
	{"live.gen_late_ms", "ms", "lower"},
	{"live.malformed", "count", "lower"},
	{"live.misrouted", "count", "lower"},
}

// simLayerValues derives the per-layer metrics of a simulated workload
// from its traced operation; untracedWallS is the untraced operation's
// wall time of the same seed.
func simLayerValues(op tracedOp, untracedWallS float64) map[string]float64 {
	o := op.Out
	v := map[string]float64{
		"run.wall_s":                untracedWallS,
		"sim.kernel_events":         float64(o.KernelEvents),
		"run.kernel_s":              op.Total["run.kernel"],
		"setup.topology_s":          op.Total["setup.topology"],
		"topology.mutations":        float64(op.Mutations),
		"setup.network_s":           op.Total["setup.network"],
		"net.msgs_sent":             float64(op.Net.Sent),
		"net.msgs_lost":             float64(op.Net.Lost),
		"net.bytes_sent":            float64(op.Net.Bytes),
		"net.event_msgs":            float64(op.Net.Event),
		"net.gossip_msgs":           float64(op.Net.Gossip),
		"net.control_msgs":          float64(op.Net.Control),
		"setup.pubsub_nodes_s":      op.Total["setup.pubsub_nodes"],
		"setup.pubsub_install_s":    op.Total["setup.pubsub_install"],
		"setup.subindex_s":          op.Total["setup.subindex"],
		"run.pubsub_self_s":         op.Self["pubsub.handle"],
		"run.publish_s":             op.Total["pubsub.publish"],
		"pubsub.handled_msgs":       float64(op.Count["pubsub.handle"]),
		"setup.core_engines_s":      op.Total["setup.core_engines"],
		"run.core_msg_s":            op.Self["core.msg"],
		"core.rounds_started":       float64(o.Engine.RoundsStarted),
		"core.rounds_skipped":       float64(o.Engine.RoundsSkipped),
		"core.losses_detected":      float64(o.Engine.LossesDetected),
		"core.recovered":            float64(o.Engine.Recovered),
		"core.duplicate_recoveries": float64(o.Engine.DuplicateRecoveries),
		"core.requests_sent":        float64(o.Engine.RequestsSent),
		"core.retransmits_served":   float64(o.Engine.RetransmitsServed),
		"run.metrics_s":             op.Total["metrics.tracker"],
		"metrics.tracker_calls":     float64(op.Count["metrics.tracker"]),
		"adapt.adjustments":         float64(o.Adapt.Adjustments),
		"adapt.mode_switches":       float64(o.Adapt.ModeSwitches),
		"adapt.walk_rounds":         float64(o.Adapt.WalkRounds),
		"faults.crashes":            float64(o.Crashes),
		"faults.restarts":           float64(o.Restarts),
		"repair.rounds":             float64(o.Repair.Rounds),
		"repair.links_added":        float64(o.Repair.LinksAdded),
		"repair.proposals_rejected": float64(o.Repair.ProposalsRejected),
		"setup.alloc_mb":            op.SetupAlloc,
		"run.alloc_mb":              op.RunAlloc,
		"run.gc_cpu_s":              op.RunGCCPU,
		"run.residual_s":            op.Self["run.kernel"],
		"trace.overhead":            op.WallS/untracedWallS - 1,
	}
	if o.KernelEvents > 0 {
		v["sim.ns_per_event"] = op.Total["run.kernel"] * 1e9 / float64(o.KernelEvents)
	}
	if o.Engine.RetransmitsServed > 0 {
		v["core.recovered_per_retransmit"] = float64(o.Engine.Recovered) / float64(o.Engine.RetransmitsServed)
	}
	if r := o.Engine.RoundsStarted + o.Engine.RoundsSkipped; r > 0 {
		v["core.idle_round_share"] = float64(o.Engine.RoundsSkipped) / float64(r)
	}
	if o.Repair.Reattaches > 0 {
		v["repair.reattach_mean_ms"] = o.Repair.ReattachTotal.Seconds() * 1e3 / float64(o.Repair.Reattaches)
	}
	return v
}

// tracedSimRun is the traced run of a simulated workload. It runs the
// first scenario of a round three times, each cold in its own process:
// untraced through scenario.Runner.Run, checked with every monitor of
// internal/check armed, and rebuilt from the layers' constructors with
// spans. All three must produce the same simulated result.
func tracedSimRun(o options) (report, error) {
	rep := report{Correct: true, Attempted: 3}
	co := o
	co.seed = opSeed(o.workload, o.seed, 0, 0)
	p, err := simParams(o.workload, co.seed)
	if err != nil {
		return report{}, err
	}
	fail := func(what string, err error) {
		fmt.Printf("%s: %v\n", what, err)
		rep.Failed++
		rep.Correct = false
	}

	var plain simOp
	if _, err := runChild(&plain, childArgs("sim", co)...); err != nil || plain.Err != "" {
		return report{}, errors.Join(err, errorOf(plain.Err))
	}
	if bad := checkSim(o.workload, p, plain, nil); len(bad) > 0 {
		fail("untraced run", fmt.Errorf("%v", bad))
	}

	var checked simOp
	_, err = runChild(&checked, childArgs("checked", co)...)
	switch {
	case err != nil || checked.Err != "":
		fail("checked run", errors.Join(err, errorOf(checked.Err)))
	case checked.Digest != plain.Digest || checked.Out != plain.Out:
		fail("checked run", fmt.Errorf("result %s differs from the untraced %s", checked.Digest, plain.Digest))
	default:
		fmt.Printf("checked run: internal/check monitors armed, 0 violations, result %s as untraced\n", checked.Digest)
	}

	var traced tracedOp
	if _, err := runChild(&traced, childArgs("traced", co)...); err != nil || traced.Err != "" {
		return report{}, errors.Join(err, errorOf(traced.Err))
	}
	if traced.Digest != plain.Digest || traced.Out != plain.Out {
		fail("traced run", fmt.Errorf("rebuilt result %s %+v differs from the untraced %s %+v",
			traced.Digest, traced.Out, plain.Digest, plain.Out))
	} else {
		fmt.Printf("traced run: rebuilt result %s equals the untraced run's (kernel events %d, publishes %d, deliveries %d/%d, recoveries %d, gossip %d)\n",
			traced.Digest, traced.Out.KernelEvents, traced.Out.EventsPublished, traced.Out.Deliveries,
			traced.Out.ExpectedDeliveries, traced.Out.Recoveries, traced.Out.GossipMsgs)
	}
	fmt.Printf("untraced wall %.4fs, traced wall %.4fs; spans written to %s\n", plain.WallS, traced.WallS, traced.SpanFile)
	rep.Metrics = metricsOf(perLayer, simLayerValues(traced, plain.WallS))
	printMetrics(rep)
	return rep, nil
}

func errorOf(msg string) error {
	if msg == "" {
		return nil
	}
	return errors.New(msg)
}

// liveRun runs the live-paced workload once in a child process. With
// --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer ones. Every expected (event, subscriber) delivery is one
// operation.
func liveRun(o options) (report, error) {
	var op liveOp
	u, err := runChild(&op, childArgs("live", o)...)
	if err != nil {
		return report{}, err
	}
	if op.Err != "" {
		return report{}, errors.New(op.Err)
	}
	fmt.Printf("set-ups %v s wall, %v s CPU; p50 latency %.4f ms; %d publishes, %d expected deliveries, %d missing, %d duplicated, %d to non-subscribers; drain %.4fs\n",
		op.SetupTimesS, op.SetupCPUS, op.P50Ms, op.Publishes, op.Expected, op.Missing, op.Duplicate, op.Wrong, op.DrainS)
	rep := report{
		Correct:   op.Duplicate == 0 && op.Wrong == 0,
		Attempted: op.Expected,
		Failed:    op.Missing + op.Duplicate + op.Wrong,
	}
	if o.trace == 0 {
		rep.Metrics = metricsOf(endToEnd, map[string]float64{
			"setup_s":     op.SetupS,
			"cpu_s":       op.CPUS,
			"peak_rss_mb": u.peakRSSMB,
		})
	} else {
		v := map[string]float64{
			"setup.alloc_mb":   op.SetupAlloc,
			"run.alloc_mb":     op.RunAlloc,
			"run.gc_cpu_s":     op.RunGCCPU,
			"live.publish_us":  op.PublishUs,
			"live.events_sent": float64(op.EventsSent),
			"live.gossip_sent": float64(op.GossipSent),
			"live.deliveries":  float64(op.Deliveries),
			"live.recovered":   float64(op.Recovered),
			"live.idle_cpu_s":  op.IdleCPUS,
			"run.wall_s":       op.WallS,
			"live.p50_ms":      op.P50Ms,
			"live.p99_ms":      op.P99Ms,
			"live.gen_late_ms": op.GenLateMs,
			"live.malformed":   float64(op.Malformed),
			"live.misrouted":   float64(op.Misrouted),
		}
		if op.Deliveries > 0 {
			v["live.cpu_us_per_delivery"] = op.CPUS * 1e6 / float64(op.Deliveries)
		}
		rep.Metrics = metricsOf(perLayer, v)
	}
	printMetrics(rep)
	return rep, nil
}
