package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/live"
	"repro/internal/matching"
	"repro/internal/topology"
	"repro/internal/wire"
)

// liveConfig is the make-up of one live-paced run.
type liveConfig struct {
	Seed       int64
	Nodes      int // live dispatchers hosted on one live.Dispatcher
	Sockets    int // shard sockets of the dispatcher
	MaxDegree  int // overlay tree degree bound
	Patterns   int // Π
	PerNode    int // πmax: patterns each dispatcher subscribes to
	MaxMatch   int // most patterns one event carries
	Publishers int
	Rate       float64       // events/s per publisher, evenly spaced
	PublishFor time.Duration // publishing time
	Drain      time.Duration // how long after the last publish deliveries may still arrive
	Setups     int           // set-ups per run; the last one carries the run
	Idle       time.Duration // quiet interval whose CPU the traced run reports
}

// liveWorkload returns the live-paced workload of one run: the paper's
// content model (Π=70, πmax=2, up to 3 patterns per event) on 200
// dispatchers with combined pull, 8 publishers driven open loop at
// 100 events/s each, publishing for three quarters of the run.
func liveWorkload(seed int64, seconds int) liveConfig {
	return liveConfig{
		Seed:       seed,
		Nodes:      200,
		Sockets:    2,
		MaxDegree:  4,
		Patterns:   70,
		PerNode:    2,
		MaxMatch:   3,
		Publishers: 8,
		Rate:       100,
		PublishFor: max(time.Second, time.Duration(seconds)*time.Second*3/4),
		Drain:      5 * time.Second,
		Setups:     5,
		Idle:       time.Second,
	}
}

// liveInputs are the subscriptions, publishers and event contents of a
// run, all drawn from the seed before anything starts.
type liveInputs struct {
	links      []topology.Link
	subs       [][]ident.PatternID // per dispatcher
	publishers []ident.NodeID
	contents   [][]matching.Content // per publisher, in publish order
}

func makeLiveInputs(c liveConfig) (liveInputs, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	topo, err := topology.New(c.Nodes, c.MaxDegree, rng)
	if err != nil {
		return liveInputs{}, err
	}
	in := liveInputs{links: topo.Links()}
	for i := 0; i < c.Nodes; i++ {
		in.subs = append(in.subs, distinctPatterns(rng, c.Patterns, c.PerNode))
	}
	for _, i := range rng.Perm(c.Nodes)[:c.Publishers] {
		in.publishers = append(in.publishers, ident.NodeID(i))
	}
	perPublisher := int(c.Rate * c.PublishFor.Seconds())
	for range in.publishers {
		cs := make([]matching.Content, perPublisher)
		for j := range cs {
			cs[j] = matching.Content(distinctPatterns(rng, c.Patterns, 1+rng.Intn(c.MaxMatch)))
		}
		in.contents = append(in.contents, cs)
	}
	return in, nil
}

// distinctPatterns draws k distinct patterns of [0, n), ascending.
func distinctPatterns(rng *rand.Rand, n, k int) []ident.PatternID {
	seen := map[int]bool{}
	for len(seen) < k {
		seen[rng.Intn(n)] = true
	}
	out := make([]ident.PatternID, 0, k)
	for p := 0; p < n; p++ {
		if seen[p] {
			out = append(out, ident.PatternID(p))
		}
	}
	return out
}

// delivery is one local delivery observed at a live dispatcher.
type delivery struct {
	Event     ident.EventID
	Node      ident.NodeID
	At        time.Duration // since the run's epoch
	Recovered bool
}

// published is one publish the generator made.
type published struct {
	ID      ident.EventID
	Sched   time.Duration // when it was due, since the epoch
	Content matching.Content
}

// liveCluster is one set-up of the live runtime.
type liveCluster struct {
	disp  *live.Dispatcher
	nodes []*live.Node
}

func (lc *liveCluster) close() {
	if lc.disp != nil {
		_ = lc.disp.Close() // a benchmark teardown error changes no figure
	}
}

// setUp starts the dispatcher and its nodes, wires the overlay,
// subscribes, and returns once every dispatcher has learned a route for
// every subscribed pattern.
func setUp(c liveConfig, in liveInputs, epoch time.Time, onDeliver func(delivery)) (*liveCluster, error) {
	d, err := live.NewDispatcher(live.DispatcherConfig{Sockets: c.Sockets})
	if err != nil {
		return nil, err
	}
	lc := &liveCluster{disp: d}
	for i := 0; i < c.Nodes; i++ {
		id := ident.NodeID(i)
		n, err := d.AddNode(live.Config{
			ID:        id,
			Algorithm: core.CombinedPull,
			Seed:      c.Seed*int64(c.Nodes) + int64(i) + 1,
			Epoch:     epoch,
			OnDeliver: func(ev *wire.Event, recovered bool) {
				onDeliver(delivery{ev.ID, id, time.Since(epoch), recovered})
			},
		})
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, n)
	}
	dir := make(map[ident.NodeID]*net.UDPAddr, c.Nodes)
	for _, n := range lc.nodes {
		dir[n.ID()] = n.Addr()
	}
	for _, n := range lc.nodes {
		n.SetDirectory(dir)
	}
	for _, l := range in.links {
		lc.nodes[l.A].AddNeighbor(l.B, dir[l.B])
		lc.nodes[l.B].AddNeighbor(l.A, dir[l.A])
	}
	want := map[ident.PatternID]bool{}
	for i, ps := range in.subs {
		for _, p := range ps {
			lc.nodes[i].Subscribe(p)
			want[p] = true
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range lc.nodes {
		for n.KnownPatternCount() < len(want) {
			if time.Now().After(deadline) {
				lc.close()
				return nil, fmt.Errorf("node %d learned %d of %d patterns", n.ID(), n.KnownPatternCount(), len(want))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return lc, nil
}

// liveOp is what the live child reports.
type liveOp struct {
	Err string `json:"err,omitempty"`
	// End-to-end figures. SetupS is the median CPU time of a set-up.
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	P50Ms     float64 `json:"p50_ms"`
	Expected  int64   `json:"expected"`
	Missing   int64   `json:"missing"`
	Duplicate int64   `json:"duplicate"`
	Wrong     int64   `json:"wrong"`
	// Per-layer figures.
	P99Ms       float64   `json:"p99_ms"`
	PublishUs   float64   `json:"publish_us"`
	GenLateMs   float64   `json:"gen_late_ms"`
	EventsSent  uint64    `json:"events_sent"`
	GossipSent  uint64    `json:"gossip_sent"`
	Deliveries  uint64    `json:"deliveries"`
	Recovered   uint64    `json:"recovered"`
	IdleCPUS    float64   `json:"idle_cpu_s"`
	Malformed   uint64    `json:"malformed"`
	Misrouted   uint64    `json:"misrouted"`
	SetupAlloc  float64   `json:"setup_alloc_mb"`
	RunAlloc    float64   `json:"run_alloc_mb"`
	RunGCCPU    float64   `json:"run_gc_cpu_s"`
	DrainS      float64   `json:"drain_s"`
	Publishes   int       `json:"publishes"`
	SetupTimesS []float64 `json:"setup_times_s"`
	SetupCPUS   []float64 `json:"setup_cpu_s"`
}

// processCPU returns this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLiveOp runs the live-paced workload once in this process: set up
// several times (keeping the last set-up), publish open loop for the
// publishing time, wait for the deliveries to drain, and check the
// delivered set against the audience computed from the inputs.
func runLiveOp(c liveConfig, traced bool) liveOp {
	in, err := makeLiveInputs(c)
	if err != nil {
		return liveOp{Err: err.Error()}
	}
	var mu sync.Mutex
	var got []delivery
	var lc *liveCluster
	var op liveOp
	rt0 := readRuntime()
	var setupStart time.Time
	for s := 0; s < c.Setups; s++ {
		if lc != nil {
			lc.close()
			mu.Lock()
			got = got[:0]
			mu.Unlock()
		}
		cpu := processCPU()
		setupStart = time.Now()
		lc, err = setUp(c, in, setupStart, func(d delivery) {
			mu.Lock()
			got = append(got, d)
			mu.Unlock()
		})
		if err != nil {
			return liveOp{Err: fmt.Sprintf("set-up %d: %v", s+1, err)}
		}
		op.SetupTimesS = append(op.SetupTimesS, time.Since(setupStart).Seconds())
		op.SetupCPUS = append(op.SetupCPUS, (processCPU() - cpu).Seconds())
	}
	defer lc.close()
	op.SetupS = median(op.SetupCPUS)
	epoch := setupStart

	audience := expectedAudience(in, c.Nodes)
	for _, cs := range in.contents {
		for _, content := range cs {
			op.Expected += int64(len(audienceOf(audience, content)))
		}
	}

	// Open-loop generator: publisher i publishes event j when it is
	// due, whatever happened to earlier events; lateness is how far
	// behind its schedule the generator ran.
	rt1 := readRuntime()
	cpu0 := processCPU()
	gap := time.Duration(float64(time.Second) / c.Rate)
	t0 := time.Since(epoch) + 10*time.Millisecond
	pubs := make([][]published, len(in.publishers))
	calls := make([][]float64, len(in.publishers))
	late := make([][]float64, len(in.publishers))
	var wg sync.WaitGroup
	for i, src := range in.publishers {
		wg.Add(1)
		go func(i int, node *live.Node) {
			defer wg.Done()
			phase := gap * time.Duration(i) / time.Duration(len(in.publishers))
			for j, content := range in.contents[i] {
				due := t0 + phase + time.Duration(j)*gap
				if wait := due - time.Since(epoch); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(epoch)
				id := node.Publish(content)
				end := time.Since(epoch)
				pubs[i] = append(pubs[i], published{id, due, content})
				calls[i] = append(calls[i], float64(end-start)/1e3)
				late[i] = append(late[i], float64(start-due)/1e6)
			}
		}(i, lc.nodes[src])
	}
	wg.Wait()

	// Drain: every expected delivery in, or the deadline.
	drainStart := time.Now()
	for {
		mu.Lock()
		n := int64(len(got))
		mu.Unlock()
		if n >= op.Expected || time.Since(drainStart) > c.Drain {
			break
		}
		time.Sleep(time.Millisecond)
	}
	op.DrainS = time.Since(drainStart).Seconds()
	op.CPUS = (processCPU() - cpu0).Seconds()
	op.WallS = time.Since(epoch).Seconds()
	rt2 := readRuntime()

	// Late duplicates would still arrive now; the quiet interval after
	// them shows what the idle gossip timers cost.
	time.Sleep(300 * time.Millisecond)
	if traced {
		cpu := processCPU()
		time.Sleep(c.Idle)
		op.IdleCPUS = (processCPU() - cpu).Seconds()
	}
	for _, n := range lc.nodes {
		st := n.Stats()
		op.EventsSent += st.EventsSent
		op.GossipSent += st.GossipSent
		op.Deliveries += st.Delivered
		op.Recovered += st.Recovered
	}
	ds := lc.disp.Stats()
	op.Malformed, op.Misrouted = ds.Malformed, ds.Misrouted
	lc.close()

	mu.Lock()
	defer mu.Unlock()
	var all []published
	var callUs, lateMs []float64
	for i := range pubs {
		all = append(all, pubs[i]...)
		callUs = append(callUs, calls[i]...)
		lateMs = append(lateMs, late[i]...)
	}
	op.Publishes = len(all)
	v := checkLive(audience, all, got)
	op.Missing, op.Duplicate, op.Wrong = v.missing, v.duplicate, v.wrong
	op.P50Ms = quantile(v.latencyMs, 0.5)
	op.P99Ms = quantile(v.latencyMs, 0.99)
	op.PublishUs = median(callUs)
	op.GenLateMs = quantile(lateMs, 0.99)
	op.SetupAlloc = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20)
	op.RunAlloc = float64(rt2.allocBytes-rt1.allocBytes) / (1 << 20)
	op.RunGCCPU = rt2.gcCPUS - rt1.gcCPUS
	return op
}

// expectedAudience maps each pattern to the dispatchers subscribing to
// it.
func expectedAudience(in liveInputs, nodes int) map[ident.PatternID][]ident.NodeID {
	aud := map[ident.PatternID][]ident.NodeID{}
	for i := 0; i < nodes; i++ {
		for _, p := range in.subs[i] {
			aud[p] = append(aud[p], ident.NodeID(i))
		}
	}
	return aud
}

// audienceOf returns the set of dispatchers subscribing to at least one
// pattern of the content.
func audienceOf(aud map[ident.PatternID][]ident.NodeID, content matching.Content) map[ident.NodeID]bool {
	set := map[ident.NodeID]bool{}
	for _, p := range content {
		for _, n := range aud[p] {
			set[n] = true
		}
	}
	return set
}

// liveVerdict is the outcome of checking a run's deliveries.
type liveVerdict struct {
	missing, duplicate, wrong int64
	// latencyMs holds, for every first delivery to a subscriber other
	// than the publisher, the time from the event's due time.
	latencyMs []float64
}

// checkLive compares the delivered set with the audience computed from
// the subscriptions and the published content: every subscriber of a
// pattern an event carries must receive it exactly once, and nobody
// else may receive it.
func checkLive(aud map[ident.PatternID][]ident.NodeID, pubs []published, got []delivery) liveVerdict {
	type pair struct {
		ev   ident.EventID
		node ident.NodeID
	}
	byID := make(map[ident.EventID]published, len(pubs))
	var v liveVerdict
	want := map[pair]bool{}
	for _, p := range pubs {
		byID[p.ID] = p
		for n := range audienceOf(aud, p.Content) {
			want[pair{p.ID, n}] = true
		}
	}
	seen := make(map[pair]bool, len(got))
	for _, d := range got {
		k := pair{d.Event, d.Node}
		switch {
		case !want[k]:
			v.wrong++
		case seen[k]:
			v.duplicate++
		default:
			seen[k] = true
			if d.Node != d.Event.Source {
				v.latencyMs = append(v.latencyMs, float64(d.At-byID[d.Event].Sched)/1e6)
			}
		}
	}
	v.missing = int64(len(want) - len(seen))
	return v
}
