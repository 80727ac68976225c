package main

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// The workload names are the benchmark's public vocabulary: later
// changes refer to them, so they never change meaning.
const (
	paperLossy     = "paper-lossy"
	scale10k       = "scale-10k"
	churnScaleFree = "churn-scalefree"
	livePaced      = "live-paced"
)

// workloadNames lists the workloads of BENCHMARK.json in the order the
// steadiness mode runs them.
var workloadNames = []string{paperLossy, churnScaleFree, livePaced}

// byHandWorkloads run only when named: scale-10k's CPU time follows the
// host's memory-contention phases (7.5–12.7 s for one run of the same
// scenario within an hour), too far for a regression bound, so it is
// not in BENCHMARK.json, but its traced run still measures the
// large-N set-up layer by layer.
var byHandWorkloads = []string{scale10k}

// roundSize is how many operations make one round of a simulated
// workload. A churned scale-free overlay makes one scenario's cost
// swing by a sixth from seed to seed, so a churn-scalefree round runs
// four different scenarios and successive rounds run new ones; the
// other workloads cost the same on every seed within a percent and
// repeat one scenario.
func roundSize(w string) int {
	if w == churnScaleFree {
		return 4
	}
	return 1
}

// seedWindow is how many different scenarios the rounds of one
// churn-scalefree run cycle through before they repeat one.
const seedWindow = 32

// opSeed is the scenario seed of operation j of round r. On
// churn-scalefree successive rounds run new scenarios, so that a run
// averages over as many overlays and churn plans as it has time for;
// after seedWindow operations they repeat, and every repeat is checked
// against the first run of its scenario.
func opSeed(w string, seed int64, r, j int) int64 {
	k := roundSize(w)
	if k == 1 {
		return seed
	}
	return seed*seedWindow + int64((r*k+j)%seedWindow)
}

// simParams returns the scenario of a simulated workload for one seed.
// Simulated durations are chosen so that one cold run costs one to two
// seconds of host CPU on a 2-vCPU machine (scale-10k's set-up alone
// costs about ten): long enough that process start-up is noise, short
// enough that a run of the benchmark holds ten or more operations.
func simParams(w string, seed int64) (scenario.Params, error) {
	p := scenario.DefaultParams()
	p.Seed = seed
	switch w {
	case paperLossy:
		// The paper's Fig. 2 defaults (N=100 tree, Π=70, πmax=2,
		// 50 publish/s per dispatcher, ε=0.1, β=1500, T=30 ms) with
		// combined pull. The default measurement window, [1 s, 2 s],
		// leaves two seconds to detect and recover the losses of its
		// events: a gap in a (source, pattern) stream shows only when the
		// stream's next event arrives.
		p.Duration = 4 * time.Second
		p.Algorithm = core.CombinedPull
		p.Gossip = core.DefaultConfig(core.CombinedPull)
	case scale10k:
		// internal/bench's Scale10k: N=10,000, Π=2,000 (PatternSet spill
		// tier active), πmax=1, 100 events/s aggregate, ε=0.05,
		// subscriber pull at T=200 ms.
		p.N = 10_000
		p.NumPatterns = 2000
		p.PatternsPerNode = 1
		p.PublishRate = 0.01
		p.Duration = time.Second
		p.MeasureFrom = 100 * time.Millisecond
		p.MeasureTo = 900 * time.Millisecond
		p.Network.LossRate = 0.05
		p.Algorithm = core.SubscriberPull
		p.Gossip = core.DefaultConfig(core.SubscriberPull)
		p.Gossip.GossipInterval = 200 * time.Millisecond
	case churnScaleFree:
		// 200 dispatchers on a Barabási–Albert overlay with
		// self-stabilizing repair, 2 crashes/s over the first 60% of the
		// run (300 ms mean downtime), ε=0.05 on tree and out-of-band
		// links, hybrid recovery under the adaptive controller, 10
		// publish/s per dispatcher.
		p.N = 200
		p.Overlay = topology.KindScaleFree
		p.Repair = scenario.RepairSelfStabilizing
		p.PublishRate = 10
		p.Duration = 1250 * time.Millisecond
		p.Network.LossRate = 0.05
		p.Network.OOBLossRate = 0.05
		p.Algorithm = core.Hybrid
		p.Gossip = core.DefaultConfig(core.Hybrid)
		p.Adapt = &adapt.Config{}
		p.FaultPlan = faults.ChurnPlan(seed, p.N, 2, p.Duration*3/5, 300*time.Millisecond)
	default:
		return p, fmt.Errorf("unknown simulated workload %q", w)
	}
	return p, nil
}
