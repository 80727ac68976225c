// Command e2ebench is the end-to-end benchmark of the simulator and the
// live runtime. It runs one named workload for a set time, checks every
// operation's outputs, and prints the metrics as the last line of its
// standard output:
//
//	bash e2ebench/run.sh --workload paper-lossy --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced runs;
// with --trace 1 it runs the workload once more under tracing and
// prints the per-layer metrics. --steady N runs every workload N times
// with seeds 1..N, alternating the order, and prints each metric's
// median and quartiles. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec declares one metric the benchmark prints.
type metricSpec struct{ name, unit, better string }

// endToEnd lists the end-to-end metrics, printed on every workload
// with --trace 0. On a simulated workload an operation is one cold
// simulation run; on live-paced it is one (event, subscriber) delivery.
// Both times are CPU times: on a shared host the wall clock of the same
// run swings by a third with the time the hypervisor takes the vCPUs
// away (steal), which the kernel leaves out of a process's CPU time.
// Wall times and delivery latency are per-layer diagnostics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// metricsOf gives every metric of specs its value; a metric without
// one reads 0. A value for an undeclared metric is a bug.
func metricsOf(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, m := range specs {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("metric %q is not declared", name))
		}
	}
	return out
}

// childTimeout bounds one child process; a benchmark run must end
// within three minutes.
const childTimeout = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	steady   int
	child    string
	profile  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-lossy, churn-scalefree or live-paced (scale-10k by hand)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 35, "how long one run measures, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.IntVar(&o.steady, "steady", 0, "run every workload this many times (seeds 1..N) and print medians and quartiles")
	flag.StringVar(&o.child, "child", "", "internal: run one operation in this process (sim, checked, traced or live)")
	flag.StringVar(&o.profile, "cpuprofile", "", "with --child: write the operation's CPU profile to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	}
	if o.steady > 0 {
		return steady(o)
	}
	if !slices.Contains(workloadNames, o.workload) && !slices.Contains(byHandWorkloads, o.workload) {
		return fmt.Errorf("--workload %q: want one of %v, or by hand %v", o.workload, workloadNames, byHandWorkloads)
	}
	if o.child != "" {
		return runChildMode(o)
	}
	var rep report
	var err error
	switch {
	case o.workload == livePaced:
		rep, err = liveRun(o)
	case o.trace == 1:
		rep, err = tracedSimRun(o)
	default:
		rep, err = simRun(o)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChildMode runs one operation in this process and writes its
// outcome as one JSON line for the parent.
func runChildMode(o options) error {
	if o.profile != "" {
		f, err := os.Create(o.profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: writing the CPU profile: %v\n", err)
			}
		}()
	}
	var out any
	switch o.child {
	case "sim":
		out = runSimOp(o.workload, o.seed, false)
	case "checked":
		out = runSimOp(o.workload, o.seed, true)
	case "traced":
		out = runTracedOp(o.workload, o.seed)
	case "live":
		out = runLiveOp(liveWorkload(o.seed, o.seconds), o.trace == 1)
	default:
		return fmt.Errorf("--child %q: want sim, checked, traced or live", o.child)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// childUsage is what the parent learns about a finished child from the
// kernel: its peak resident set and CPU time.
type childUsage struct {
	peakRSSMB float64
	cpuS      float64
}

// runChild runs this program as a child process with args and decodes
// its JSON line into out. Each operation runs in a fresh process, so it
// starts cold and its peak memory is its own. Every child runs with
// GOMAXPROCS=1. The simulator is single-threaded, and a second P would
// only lend the garbage collector's idle-time workers CPU whose amount
// follows the host's load, not the program. The live runtime's
// goroutines share the one P: with two, idle Ps spin for work after
// every wake-up, and that spinning moved the live run's CPU by a third
// between runs while doing nothing the workload needs.
func runChild(out any, args ...string) (childUsage, error) {
	self, err := os.Executable()
	if err != nil {
		return childUsage{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var u childUsage
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		u.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	if runErr != nil {
		return u, fmt.Errorf("child %v: %w", args, runErr)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), out); err != nil {
		return u, fmt.Errorf("child %v: decoding its output: %w", args, err)
	}
	return u, nil
}

func childArgs(mode string, o options) []string {
	return []string{"--child", mode, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds),
		"--trace", strconv.Itoa(o.trace)}
}

// simRun runs whole rounds of cold simulated operations, one per child
// process, until the run's time is up, checking each one's outputs. It
// reports each metric's median over the run's operations.
func simRun(o options) (report, error) {
	k := roundSize(o.workload)
	rep := report{Correct: true}
	var setup, rss, cpu []float64
	refs := map[int64]*simOp{}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		ok := 0
		for j := 0; j < k; j++ {
			op, u, good := simOpChecked(o, opSeed(o.workload, o.seed, r, j), refs, &rep)
			if !good {
				continue
			}
			ok++
			setup = append(setup, op.SetupS)
			rss = append(rss, u.peakRSSMB)
			cpu = append(cpu, u.cpuS)
		}
		if ok == 0 {
			break // every operation failed: more rounds would fail alike
		}
	}
	rep.Metrics = metricsOf(endToEnd, map[string]float64{
		"setup_s":     median(setup),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
	})
	printMetrics(rep)
	return rep, nil
}

// simOpChecked runs one operation, simulating scenario seed seed, in a
// child process and checks its outputs against the method's properties
// and against the first run of the same scenario seed (refs[seed]). It
// counts the attempt in rep and reports whether the operation
// succeeded.
func simOpChecked(o options, seed int64, refs map[int64]*simOp, rep *report) (simOp, childUsage, bool) {
	rep.Attempted++
	co := o
	co.seed = seed
	var op simOp
	u, err := runChild(&op, childArgs("sim", co)...)
	if err == nil && op.Err != "" {
		err = errors.New(op.Err)
	}
	if err != nil {
		fmt.Printf("op %d (seed %d) failed: %v\n", rep.Attempted, co.seed, err)
		rep.Failed++
		return op, u, false
	}
	p, err := simParams(o.workload, co.seed)
	if err != nil {
		panic(err) // the child built the same parameters without error
	}
	if bad := checkSim(o.workload, p, op, refs[seed]); len(bad) > 0 {
		fmt.Printf("op %d (seed %d): output check failed: %v\n", rep.Attempted, co.seed, bad)
		rep.Failed++
		rep.Correct = false
		return op, u, false
	}
	if refs[seed] == nil {
		refs[seed] = &op
	}
	fmt.Printf("op %d (seed %d): setup cpu %.4fs wall %.4fs rss %.1fMB cpu %.3fs events %d deliveries %d/%d recovered %d rate %.4f digest %s\n",
		rep.Attempted, co.seed, op.SetupS, op.WallS, u.peakRSSMB, u.cpuS, op.Out.KernelEvents,
		op.Out.Deliveries, op.Out.ExpectedDeliveries, op.Out.Recoveries, op.DeliveryRate, op.Digest)
	return op, u, true
}

// printMetrics prints every metric by name with its unit.
func printMetrics(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}
