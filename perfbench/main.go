// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it generates a corpus and request stream, starts
// xontoserve (built from the same checkout) on fresh copies of the data
// directory, drives it over HTTP with one closed-loop client, checks every
// answer, and prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead rebuilds the same server in process and
// times each layer's public entry points (see traced.go). Run it
// through perfbench/run.sh from the repository root; README.md has the
// details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one run produced: the result-line metrics, a free-form
// report (sample counts, percentiles used, the metrics that do not
// apply to every workload), and the operation tally.
type outcome struct {
	metrics map[string]metric
	report  map[string]any
	tally   *tally
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the corpus and the request stream")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end run against a child xontoserve; 1: traced in-process per-layer run")
	serverBin := flag.String("server", "", "xontoserve binary (run.sh builds it)")
	workRoot := flag.String("work", ".bench_build/work", "work directory; each run uses and removes a subdirectory")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workRoot, fmt.Sprintf("%s-%d-", w.name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	window := time.Duration(*seconds) * time.Second
	var out *outcome
	if *trace == 1 {
		out, err = runTraced(w, *seed, window, dir)
	} else {
		if *serverBin == "" {
			fmt.Fprintln(os.Stderr, "perfbench: -server is required for -trace 0")
			return 2
		}
		out, err = runServed(w, *seed, window, *serverBin, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	failed, attempted := out.tally.failed, out.tally.attempted
	for _, m := range out.tally.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", m)
	}
	out.report["workload"] = w.name
	out.report["seed"] = *seed
	out.report["fail_frac"] = ratio(failed, attempted)
	rep, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("report %s\n", rep)
	line, err := json.Marshal(result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
