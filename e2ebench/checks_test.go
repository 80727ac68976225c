package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/matching"
)

// goodPaperOp returns outputs that pass every check of paper-lossy with
// seed 1, built from the checks' own expectations.
func goodPaperOp(t *testing.T) simOp {
	t.Helper()
	p, err := simParams(paperLossy, 1)
	if err != nil {
		t.Fatal(err)
	}
	op := simOp{
		Digest: "d1",
		Out: simOutputs{
			EventsPublished:    uint64(expectedPublishes(p)),
			ExpectedDeliveries: 1000,
			Deliveries:         900,
			Recoveries:         300,
		},
		RoutedP50Ns:  int64(2 * minRoutedLatency(p)),
		DeliveryRate: 0.9,
	}
	return op
}

func TestCheckSimAcceptsConsistentOutputs(t *testing.T) {
	p, _ := simParams(paperLossy, 1)
	op := goodPaperOp(t)
	ref := op
	if bad := checkSim(paperLossy, p, op, &ref); len(bad) > 0 {
		t.Fatalf("consistent outputs rejected: %v", bad)
	}
}

func TestCheckSimRejectsCorruptedOutputs(t *testing.T) {
	p, _ := simParams(paperLossy, 1)
	good := func() simOp { return goodPaperOp(t) }
	cases := []struct {
		name    string
		corrupt func(op, ref *simOp)
		want    string
	}{
		{"deliveries above expected", func(op, _ *simOp) { op.Out.Deliveries = op.Out.ExpectedDeliveries + 1 }, "deliveries for"},
		{"no deliveries", func(op, _ *simOp) { op.Out.Deliveries = 0 }, "deliveries for"},
		{"recoveries above deliveries", func(op, _ *simOp) { op.Out.Recoveries = op.Out.Deliveries + 1 }, "recoveries exceed"},
		{"publish count a tenth high", func(op, _ *simOp) { op.Out.EventsPublished = op.Out.EventsPublished * 11 / 10 }, "outside"},
		{"publish count a tenth low", func(op, _ *simOp) { op.Out.EventsPublished = op.Out.EventsPublished * 9 / 10 }, "outside"},
		{"routed latency below one hop", func(op, _ *simOp) { op.RoutedP50Ns = int64(minRoutedLatency(p)) - 1 }, "below one hop"},
		{"delivery rate off the paper", func(op, _ *simOp) { op.DeliveryRate = 0.7 }, "paper's band"},
		{"differing digest for one seed", func(op, ref *simOp) { ref.Digest = "d2" }, "differs"},
		{"differing outputs for one seed", func(op, ref *simOp) { ref.Out.KernelEvents++ }, "differs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			op, ref := good(), good()
			c.corrupt(&op, &ref)
			bad := checkSim(paperLossy, p, op, &ref)
			if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), c.want) {
				t.Fatalf("got %v, want a complaint containing %q", bad, c.want)
			}
		})
	}
}

func TestExpectedPublishesSubtractsPlannedDowntime(t *testing.T) {
	p, err := simParams(churnScaleFree, 3)
	if err != nil {
		t.Fatal(err)
	}
	full := p.PublishRate * float64(p.N) * p.Duration.Seconds()
	down := plannedDowntime(p.FaultPlan, p.Duration)
	if len(p.FaultPlan.Actions) > 0 && down <= 0 {
		t.Fatalf("plan with %d crashes has no downtime", len(p.FaultPlan.Actions))
	}
	if got, want := expectedPublishes(p), full-p.PublishRate*down.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("expected publishes %v, want %v", got, want)
	}
}

func TestCheckLive(t *testing.T) {
	aud := map[ident.PatternID][]ident.NodeID{1: {2, 3}, 2: {3, 4}}
	ev := ident.EventID{Source: 9, Seq: 1}
	pubs := []published{{ID: ev, Sched: time.Millisecond, Content: matching.Content{1, 2}}}
	at := func(n ident.NodeID) delivery { return delivery{Event: ev, Node: n, At: 3 * time.Millisecond} }
	cases := []struct {
		name                    string
		got                     []delivery
		missing, duplicate, bad int64
	}{
		{"exact audience", []delivery{at(2), at(3), at(4)}, 0, 0, 0},
		{"one missing", []delivery{at(2), at(4)}, 1, 0, 0},
		{"one duplicated", []delivery{at(2), at(3), at(3), at(4)}, 0, 1, 0},
		{"non-matching subscriber", []delivery{at(2), at(3), at(4), at(5)}, 0, 0, 1},
		{"unknown event", []delivery{at(2), at(3), at(4), {Event: ident.EventID{Source: 9, Seq: 2}, Node: 2}}, 0, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := checkLive(aud, pubs, c.got)
			if v.missing != c.missing || v.duplicate != c.duplicate || v.wrong != c.bad {
				t.Fatalf("missing/duplicate/wrong = %d/%d/%d, want %d/%d/%d",
					v.missing, v.duplicate, v.wrong, c.missing, c.duplicate, c.bad)
			}
		})
	}
	v := checkLive(aud, pubs, []delivery{at(2)})
	if len(v.latencyMs) != 1 || v.latencyMs[0] != 2 {
		t.Fatalf("latency %v ms, want [2] from the due time", v.latencyMs)
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the method the spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 9}, 4, 10},
		{[]float64{1.5, 2.5, 2.0, 7, 3.3, 9.1, 4.4, 1.1, 0.5, 6.6}, 1.4, 6.7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkSpecMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the spec, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the spec, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better {
			t.Errorf("end-to-end %d: spec %+v, program %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the spec, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			t.Errorf("per-layer %d: spec %+v, program %+v", i, m, perLayer[i])
		}
	}
}
