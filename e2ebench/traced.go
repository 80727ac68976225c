package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ident"
	"repro/internal/matching"
	pmetrics "repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pubsub"
	"repro/internal/repair"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// spanKind names a span the traced run records around a call into one
// layer of the program.
type spanKind uint8

const (
	spTopology spanKind = iota // topology.NewOverlay
	spNetwork                  // network.New
	spNodes                    // pubsub.NewNodeIn, one per dispatcher
	spInstall                  // pubsub.InstallStableSubscriptions
	spSubIndex                 // pubsub.NewSubscriberIndex
	spEngines                  // core.NewEngineIn + Engine.Start, one per dispatcher
	spKernel                   // sim.Kernel.Run
	spHandle                   // network.Handler.HandleMessage
	spPublish                  // pubsub.Node.Publish
	spCore                     // pubsub.Recovery hooks of core.Engine
	spMetrics                  // metrics.DeliveryTracker callbacks
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup.topology", "setup.network", "setup.pubsub_nodes", "setup.pubsub_install",
	"setup.subindex", "setup.core_engines", "run.kernel", "pubsub.handle",
	"pubsub.publish", "core.msg", "metrics.tracker",
}

// maxKeptSpans bounds the raw spans held for the span file; the
// per-kind totals cover every span.
const maxKeptSpans = 200_000

type frame struct {
	kind  spanKind
	id    int64
	start int64
	child int64 // time covered by direct children
}

type spanRecord struct {
	id, parent int64
	kind       spanKind
	start, end int64
}

// tracer records spans in memory. The simulator is single-threaded, so
// open spans form a stack: a span's parent is the span open below it.
type tracer struct {
	base  time.Time
	stack []frame
	next  int64
	total [numSpanKinds]int64 // ns
	self  [numSpanKinds]int64 // ns, minus direct children
	count [numSpanKinds]uint64
	kept  []spanRecord
}

func (t *tracer) begin(k spanKind) {
	t.stack = append(t.stack, frame{kind: k, id: t.next, start: int64(time.Since(t.base))})
	t.next++
}

func (t *tracer) end() {
	end := int64(time.Since(t.base))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.total[f.kind] += d
	t.self[f.kind] += d - f.child
	t.count[f.kind]++
	parent := int64(-1)
	if n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{f.id, parent, f.kind, f.start, end})
	}
}

// write stores the kept spans as tab-separated lines: id, parent id,
// name, start and end in nanoseconds since the run began.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedHandler sits in front of a dispatcher's network.Handler.
type timedHandler struct {
	t *tracer
	h network.Handler
}

// HandleMessage implements network.Handler.
func (th timedHandler) HandleMessage(from ident.NodeID, msg wire.Message, oob bool) {
	th.t.begin(spHandle)
	th.h.HandleMessage(from, msg, oob)
	th.t.end()
}

// timedRecovery sits in front of a dispatcher's recovery engine.
type timedRecovery struct {
	t *tracer
	r pubsub.Recovery
}

// OnPublish implements pubsub.Recovery.
func (tr timedRecovery) OnPublish(ev *wire.Event) {
	tr.t.begin(spCore)
	tr.r.OnPublish(ev)
	tr.t.end()
}

// OnDeliver implements pubsub.Recovery.
func (tr timedRecovery) OnDeliver(ev *wire.Event, from ident.NodeID) {
	tr.t.begin(spCore)
	tr.r.OnDeliver(ev, from)
	tr.t.end()
}

// HandleRecovery implements pubsub.Recovery.
func (tr timedRecovery) HandleRecovery(from ident.NodeID, msg wire.Message, oob bool) {
	tr.t.begin(spCore)
	tr.r.HandleRecovery(from, msg, oob)
	tr.t.end()
}

// netCounter is a network.Observer counting transmissions by wire kind.
type netCounter struct {
	Sent, Lost, Bytes      uint64
	Event, Gossip, Control uint64
}

// OnSend implements network.Observer.
func (c *netCounter) OnSend(_, _ ident.NodeID, msg wire.Message, _ bool) {
	c.Sent++
	c.Bytes += uint64(msg.WireSize())
	switch k := msg.Kind(); {
	case k == wire.KindEvent || k == wire.KindRetransmit:
		c.Event++
	case k.IsGossip():
		c.Gossip++
	default:
		c.Control++
	}
}

// OnLoss implements network.Observer.
func (c *netCounter) OnLoss(ident.NodeID, ident.NodeID, wire.Message, bool) { c.Lost++ }

// runtimeSample reads the Go runtime's cumulative allocation and GC CPU.
type runtimeSample struct {
	allocBytes uint64
	gcCPUS     float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPUS = s[1].Value.Float64()
	}
	return r
}

// tracedOp is what the traced child reports: the rebuilt run's digest
// and outputs, for comparison with the untraced run, and the per-layer
// figures.
type tracedOp struct {
	Digest string     `json:"digest"`
	Out    simOutputs `json:"out"`
	Err    string     `json:"err,omitempty"`
	// Host seconds of the whole rebuilt run and of its setup.
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	// Per-kind span totals and self times (seconds) and counts.
	Total map[string]float64 `json:"total"`
	Self  map[string]float64 `json:"self"`
	Count map[string]uint64  `json:"count"`

	Mutations  uint64     `json:"mutations"`
	Net        netCounter `json:"net"`
	SetupAlloc float64    `json:"setup_alloc_mb"`
	RunAlloc   float64    `json:"run_alloc_mb"`
	RunGCCPU   float64    `json:"run_gc_cpu_s"`
	SpanFile   string     `json:"span_file"`
}

// runTracedOp rebuilds a simulated workload from the layers' public
// constructors, exactly as scenario.Runner.Run assembles it (same
// construction order, same stream tags), with spans around the calls
// into each layer and timing wrappers in front of the network handler
// and recovery interfaces. Its simulated outputs must equal the
// untraced run's on the same seed.
func runTracedOp(w string, seed int64) tracedOp {
	p, err := simParams(w, seed)
	if err != nil {
		return tracedOp{Err: err.Error()}
	}
	res, tr, op, err := rebuild(p)
	if err != nil {
		return tracedOp{Err: err.Error()}
	}
	op.Digest = digest(res)
	op.Out = outputsOf(res)
	op.Total = map[string]float64{}
	op.Self = map[string]float64{}
	op.Count = map[string]uint64{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		op.Total[spanNames[k]] = float64(tr.total[k]) / 1e9
		op.Self[spanNames[k]] = float64(tr.self[k]) / 1e9
		op.Count[spanNames[k]] = tr.count[k]
	}
	op.SpanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", w, seed))
	if err := tr.write(op.SpanFile); err != nil {
		op.Err = fmt.Sprintf("writing spans: %v", err)
	}
	return op
}

// rebuild is scenario.Runner.Run for the configurations the simulated
// workloads use (no reconfiguration driver, trace ring, checker,
// sharding, streaming metrics or workload skew), with tracing.
func rebuild(p scenario.Params) (scenario.Result, *tracer, tracedOp, error) {
	var op tracedOp
	// scenario's normalization, for the fields these workloads leave
	// at zero.
	if p.MeasureFrom == 0 && p.MeasureTo == 0 {
		p.MeasureFrom, p.MeasureTo = time.Second, p.Duration-2*time.Second
		if p.MeasureTo <= p.MeasureFrom {
			p.MeasureFrom, p.MeasureTo = 0, p.Duration
		}
	}
	p.Gossip.Algorithm = p.Algorithm
	if p.Adapt != nil {
		p.Gossip.Adapt = p.Adapt
	}
	g, err := p.Gossip.Normalize()
	if err != nil {
		return scenario.Result{}, nil, op, err
	}
	p.Gossip = g

	t := &tracer{base: time.Now()}
	rt0 := readRuntime()
	start := time.Now()
	k := sim.New(p.Seed)

	t.begin(spTopology)
	topo, err := topology.NewOverlay(p.Overlay, p.N, p.MaxDegree, k.NewStream(0x746f706f)) // "topo"
	t.end()
	if err != nil {
		return scenario.Result{}, nil, op, err
	}
	topo.SetMutationHook(func() { op.Mutations++ })

	traffic := pmetrics.NewTraffic(p.N)
	t.begin(spNetwork)
	nw := network.New(k, topo, p.Network, network.MultiObserver(traffic, &op.Net))
	t.end()
	tracker := pmetrics.NewDeliveryTracker(k.Now)

	var inj *faults.Injector
	onDeliver := func(node ident.NodeID, ev *wire.Event, recovered bool) {
		if inj != nil && inj.WasDownAt(node, sim.Time(ev.PublishedAt)) {
			return
		}
		t.begin(spMetrics)
		tracker.OnDeliver(node, ev, recovered)
		t.end()
	}
	pcfg := pubsub.Config{
		RecordRoutes: p.Algorithm.NeedsRoutes(),
		DedupForward: p.Overlay != topology.KindTree,
		OnDeliver:    onDeliver,
	}
	var nodePool pubsub.NodePool
	nodes := make([]*pubsub.Node, p.N)
	for i := range nodes {
		id := ident.NodeID(i)
		t.begin(spNodes)
		nodes[i] = pubsub.NewNodeIn(id, k, nw, topo.Neighbors(id), pcfg, &nodePool)
		t.end()
		nw.Register(id, timedHandler{t, nodes[i]})
	}

	u := matching.Universe{NumPatterns: p.NumPatterns, MaxMatch: p.MaxMatch}
	subRNG := k.NewStream(0x73756273) // "subs"
	subs := make([][]ident.PatternID, p.N)
	for i := range subs {
		subs[i] = u.RandomSubscriptions(p.PatternsPerNode, subRNG)
	}
	t.begin(spInstall)
	pubsub.InstallStableSubscriptions(topo, nodes, subs)
	t.end()
	t.begin(spSubIndex)
	subIndex := pubsub.NewSubscriberIndex(p.NumPatterns, subs)
	t.end()

	var scratch core.ScratchPool
	engines := make([]*core.Engine, 0, p.N)
	for _, n := range nodes {
		t.begin(spEngines)
		e, err := core.NewEngineIn(n, p.Gossip, &scratch)
		if err == nil {
			e.Start()
		}
		t.end()
		if err != nil {
			return scenario.Result{}, nil, op, err
		}
		n.SetRecovery(timedRecovery{t, e})
		engines = append(engines, e)
	}

	if p.FaultPlan != nil {
		gossipers := make([]faults.Gossiper, p.N)
		for i, e := range engines {
			gossipers[i] = e
		}
		inj = faults.NewInjector(faults.Config{
			Kernel:         k,
			Topo:           topo,
			Net:            nw,
			Nodes:          nodes,
			Engines:        gossipers,
			RepairDelay:    p.RepairDelay,
			DisableHealing: p.Repair == scenario.RepairSelfStabilizing,
		})
		if err := inj.Schedule(p.FaultPlan); err != nil {
			return scenario.Result{}, nil, op, err
		}
	}
	var prot *repair.Protocol
	if p.Repair == scenario.RepairSelfStabilizing {
		prot, err = repair.New(repair.Config{
			Kernel: k,
			Topo:   topo,
			IsDown: func(id ident.NodeID) bool { return inj != nil && inj.IsDown(id) },
			OnLinkUp: func(a, b ident.NodeID) {
				nodes[a].OnLinkUp(b)
				nodes[b].OnLinkUp(a)
			},
			OnLinkDown: func(a, b ident.NodeID) {
				nodes[a].OnLinkDown(b)
				nodes[b].OnLinkDown(a)
			},
		})
		if err != nil {
			return scenario.Result{}, nil, op, err
		}
		prot.Start()
	}

	// Poisson publishers, each on its own "work"+node stream; the
	// post-publish accounting runs inline, as on scenario's sequential
	// path.
	var published uint64
	var aud audience
	for i := range nodes {
		meanGap := float64(time.Second) / p.PublishRate
		node := nodes[i]
		pr := node.Proc()
		wlRNG := k.NewStream(0x776f726b + int64(i)) // "work" + node
		var publish func()
		schedule := func() { pr.After(sim.Time(wlRNG.ExpFloat64()*meanGap), publish) }
		publish = func() {
			if inj != nil && inj.IsDown(node.ID()) {
				schedule()
				return
			}
			content := u.RandomContent(wlRNG)
			t.begin(spPublish)
			ev := node.Publish(content, p.PayloadBytes)
			t.end()
			var down func(ident.NodeID) bool
			if inj != nil {
				down = inj.IsDown
			}
			expected := aud.count(subIndex, content, node.ID(), p.N, down)
			t.begin(spMetrics)
			tracker.OnPublish(ev.ID, expected, k.Now())
			t.end()
			published++
			schedule()
		}
		schedule()
	}

	rt1 := readRuntime()
	op.SetupS = time.Since(start).Seconds()
	t.begin(spKernel)
	k.Run(p.Duration)
	t.end()
	rt2 := readRuntime()
	for _, e := range engines {
		e.Stop()
	}

	res := scenario.Result{
		Params:              p,
		DeliveryRate:        tracker.Rate(p.MeasureFrom, p.MeasureTo),
		RecoveredShare:      tracker.RecoveredShare(p.MeasureFrom, p.MeasureTo),
		ReceiversPerEvent:   tracker.ReceiversPerEvent(p.MeasureFrom, p.MeasureTo),
		TimeSeries:          tracker.TimeSeries(p.BucketWidth),
		GossipPerDispatcher: traffic.GossipPerDispatcher(),
		GossipEventRatio:    traffic.GossipEventRatio(),
		EventsPublished:     published,
		MeanPathLength:      topo.MeanPairwiseDistance(),
		KernelEvents:        k.Processed(),
	}
	if inj != nil {
		fs := inj.Stats()
		res.Crashes, res.Restarts = fs.Crashes, fs.Restarts
		res.LinkFlaps, res.Partitions = fs.LinkFlaps, fs.Partitions
		res.NodeDowntime = inj.Downtime(p.Duration)
		res.RepairAbandoned = fs.RepairAbandoned
	}
	if prot != nil {
		res.Repair = prot.Stats()
	}
	res.ExpectedDeliveries, res.Deliveries, res.Recoveries = tracker.Totals()
	if rl := tracker.RoutedLatency(); rl.Count() > 0 {
		res.RoutedLatencyP50 = rl.Quantile(0.5)
		res.RoutedLatencyP99 = rl.Quantile(0.99)
	}
	if cl := tracker.RecoveryLatency(); cl.Count() > 0 {
		res.RecoveryLatencyP50 = cl.Quantile(0.5)
		res.RecoveryLatencyP99 = cl.Quantile(0.99)
	}
	for _, e := range engines {
		s := e.Stats()
		res.EngineStats.RoundsStarted += s.RoundsStarted
		res.EngineStats.RoundsSkipped += s.RoundsSkipped
		res.EngineStats.LossesDetected += s.LossesDetected
		res.EngineStats.Recovered += s.Recovered
		res.EngineStats.DuplicateRecoveries += s.DuplicateRecoveries
		res.EngineStats.RequestsSent += s.RequestsSent
		res.EngineStats.RetransmitsServed += s.RetransmitsServed
		if as, ok := e.AdaptStats(); ok {
			res.Adapt.Merge(as)
		}
	}
	op.WallS = time.Since(start).Seconds()
	op.SetupAlloc = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20)
	op.RunAlloc = float64(rt2.allocBytes-rt1.allocBytes) / (1 << 20)
	op.RunGCCPU = rt2.gcCPUS - rt1.gcCPUS
	return res, t, op, nil
}

// audience counts the dispatchers other than the publisher that
// subscribe to a pattern of the content and are up, marking each once
// per call with a generation stamp.
type audience struct {
	stamp []uint32
	gen   uint32
}

func (a *audience) count(ix *pubsub.SubscriberIndex, c matching.Content, publisher ident.NodeID, n int, down func(ident.NodeID) bool) int {
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
	}
	a.gen++
	if a.gen == 0 {
		clear(a.stamp)
		a.gen = 1
	}
	count := 0
	for _, p := range c {
		for _, s := range ix.Subscribers(p) {
			if s != publisher && a.stamp[s] != a.gen && (down == nil || !down(s)) {
				a.stamp[s] = a.gen
				count++
			}
		}
	}
	return count
}
