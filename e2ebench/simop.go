package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/repair"
	"repro/internal/scenario"
)

// netStreamTag is the kernel stream tag network.New seeds its default
// Bernoulli loss model from ("netw").
const netStreamTag = 0x6e657477

// simOutputs are the simulated outputs a run must reproduce exactly:
// under one seed every untraced, checked and traced run of a workload
// yields the same values.
type simOutputs struct {
	KernelEvents       uint64
	EventsPublished    uint64
	ExpectedDeliveries uint64
	Deliveries         uint64
	Recoveries         uint64
	GossipMsgs         uint64
	Engine             core.Stats
	Crashes, Restarts  uint64
	Repair             repair.Stats
	Adapt              adapt.RunStats
}

// simOp is what one cold simulated operation reports to the parent.
type simOp struct {
	// SetupS is the process's CPU time from the call into
	// scenario.Runner.Run to the first transmission of the run, which
	// follows the first simulated event by microseconds of host time.
	SetupS float64 `json:"setup_s"`
	// WallS is host time of the whole Run call.
	WallS float64 `json:"wall_s"`
	// Digest fingerprints the whole Result (configuration excluded).
	Digest string     `json:"digest"`
	Out    simOutputs `json:"out"`
	// RoutedP50Ns and DeliveryRate feed the output checks.
	RoutedP50Ns  int64   `json:"routed_p50_ns"`
	DeliveryRate float64 `json:"delivery_rate"`
	Err          string  `json:"err,omitempty"`
}

// firstSend wraps a loss model and notes the process's CPU time at the
// first transmission it is asked about.
type firstSend struct {
	network.LossModel
	seen bool
	cpu  time.Duration
}

func (f *firstSend) mark() {
	if !f.seen {
		f.seen = true
		f.cpu = processCPU()
	}
}

// DropTree implements network.LossModel.
func (f *firstSend) DropTree(from, to ident.NodeID) bool {
	f.mark()
	return f.LossModel.DropTree(from, to)
}

// DropOOB implements network.LossModel.
func (f *firstSend) DropOOB(from, to ident.NodeID) bool {
	f.mark()
	return f.LossModel.DropOOB(from, to)
}

// runSimOp runs one simulated operation through scenario.Runner.Run.
// The loss model is rebuilt from the same stream the network would
// seed it from, so the run is bit-identical to one without the clock.
// With checked set, the monitors of internal/check are armed.
func runSimOp(w string, seed int64, checked bool) simOp {
	p, err := simParams(w, seed)
	if err != nil {
		return simOp{Err: err.Error()}
	}
	clock := &firstSend{}
	p.NewLossModel = func(stream func(tag int64) *rand.Rand) network.LossModel {
		clock.LossModel = network.NewBernoulli(p.Network.LossRate, p.Network.OOBLossRate, stream(netStreamTag))
		return clock
	}
	if checked {
		p.Check = check.All()
		if w == churnScaleFree {
			// On a churned scale-free overlay under self-stabilizing
			// repair these two monitors fire on most seeds (README.md,
			// "Known faults"); the checked pass arms the other four.
			p.Check.Recovery = false
			p.Check.Topology = false
		}
	}
	var r scenario.Runner
	cpu0 := processCPU()
	start := time.Now()
	res, err := r.Run(p)
	end := time.Now()
	if err != nil {
		return simOp{Err: err.Error()}
	}
	op := simOp{
		WallS:        end.Sub(start).Seconds(),
		Digest:       digest(res),
		Out:          outputsOf(res),
		RoutedP50Ns:  int64(res.RoutedLatencyP50),
		DeliveryRate: res.DeliveryRate,
	}
	op.SetupS = (processCPU() - cpu0).Seconds()
	if clock.seen {
		op.SetupS = (clock.cpu - cpu0).Seconds()
	}
	return op
}

func outputsOf(res scenario.Result) simOutputs {
	return simOutputs{
		KernelEvents:       res.KernelEvents,
		EventsPublished:    res.EventsPublished,
		ExpectedDeliveries: res.ExpectedDeliveries,
		Deliveries:         res.Deliveries,
		Recoveries:         res.Recoveries,
		GossipMsgs:         uint64(res.GossipPerDispatcher*float64(res.Params.N) + 0.5),
		Engine:             res.EngineStats,
		Crashes:            res.Crashes,
		Restarts:           res.Restarts,
		Repair:             res.Repair,
		Adapt:              res.Adapt,
	}
}

// digest fingerprints everything a run computed. The echoed parameters
// are left out: they hold function values and pointers whose printed
// form is not part of the result.
func digest(res scenario.Result) string {
	res.Params = scenario.Params{}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:8])
}
