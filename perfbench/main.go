// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the engine's public surface (core, shard, cluster and
// server), checks every answer against a reference oracle, and prints
// one JSON result line:
//
//	perfbench -datadir DIR --workload hot_read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run. The steady subcommand
// repeats every workload over several seeds and prints medians and
// quartiles:
//
//	perfbench -datadir DIR steady --runs 5 --seed 1
//
// Build and run it through run.sh, which keeps every file the build and
// the run write inside the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	datadir := flag.String("datadir", "", "directory for the engines' data dirs (required)")
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: generates the instance, the query parameters and the write stream")
	seconds := flag.Float64("seconds", 20, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 traces every request and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *datadir == "" {
		fatalf("-datadir is required")
	}
	if flag.NArg() > 0 {
		if flag.Arg(0) != "steady" {
			fatalf("unknown subcommand %q", flag.Arg(0))
		}
		if err := steady(*datadir, flag.Args()[1:]); err != nil {
			fatalf("steady: %v", err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	dir := filepath.Join(*datadir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(context.Background(), w, config{
		dir:     dir,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	})
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", w.name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
