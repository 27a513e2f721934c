package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs each workload several times, one process per run with
// seeds seed, seed+1, …, and prints every metric's median, quartiles
// and quartile spread as a share of the median (quartiles as Python's
// statistics.quantiles(values, n=4) gives them) — the figures that show
// whether two sets of runs of the same code agree.
func steady(datadir string, args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Float64("seconds", 20, "length of each run's timed loop")
	trace := fs.Int("trace", 0, "1 reports the traced, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames() {
		values := make(map[string][]float64)
		units := make(map[string]string)
		var shares []string
		correct := true
		for i := 0; i < *runs; i++ {
			cmd := exec.Command(self, "-datadir", datadir, "--workload", name,
				"--seed", strconv.FormatInt(*seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(*seconds, 'f', -1, 64),
				"--trace", strconv.Itoa(*trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			correct = correct && res.Correct
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %gs each, correct=%v, failed/attempted %s\n",
			name, *runs, *seed, *seed+int64(*runs)-1, *seconds, correct, strings.Join(shares, " "))
		fmt.Printf("  %-32s %12s %12s %12s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q1, q2, q3 := quantile(values[m], 0.25), quantile(values[m], 0.5), quantile(values[m], 0.75)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-32s %12.4g %12.4g %12.4g %7.1f%%  %s\n", m, q2, q1, q3, 100*spread, units[m])
		}
	}
	return nil
}
