package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// steady runs every workload o.steady times with seeds 1..N, reversing
// the workload order on every other pass so that no workload always
// runs first, and prints each end-to-end metric's median, quartiles and
// spread (interquartile distance as a share of the median), next to the
// bound BENCHMARK.json gives it when that file is in the working
// directory.
func steady(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string]map[string][]float64{}
	failedShare := map[string][]float64{}
	for i := 1; i <= o.steady; i++ {
		order := slices.Clone(workloadNames)
		if i%2 == 0 {
			slices.Reverse(order)
		}
		for _, w := range order {
			rep, err := runReport(self, w, int64(i), o.seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, i, err)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			failedShare[w] = append(failedShare[w], float64(rep.Failed)/float64(rep.Attempted))
			fmt.Printf("pass %d %-16s seed %d: %s\n", i, w, i, compact(rep))
		}
	}
	fmt.Printf("\n%-16s %-12s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			xs := values[w][m.name]
			q1, q3 := quartiles(xs)
			fmt.Printf("%-16s %-12s %12.6g %12.6g %12.6g %8.4f %8.3g\n", w, m.name, median(xs), q1, q3, spread(xs), bounds[m.name])
		}
		fmt.Printf("%-16s failed share per run: %v\n", w, failedShare[w])
	}
	return nil
}

// runReport runs one benchmark run in a child process and decodes the
// report on its last line.
func runReport(self, w string, seed int64, seconds int) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("decoding the report: %w", err)
	}
	return rep, nil
}

func compact(rep report) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "attempted %d failed %d correct %v", rep.Attempted, rep.Failed, rep.Correct)
	for _, m := range endToEnd {
		fmt.Fprintf(&b, " %s=%.6g", m.name, rep.Metrics[m.name].Value)
	}
	return b.String()
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json file,
// or none when it cannot be read.
func readBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
