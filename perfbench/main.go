// Command perfbench is the repository's end-to-end benchmark. It drives
// the suite runner, the result store, the ptestd hub and a fleet worker
// through their public constructors, all in one process per workload,
// checks every output against a local sequential run, and prints one
// JSON result line last:
//
//	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced phase. With --trace 1 the phase is split: an untraced half,
// then a half with spans recorded around every wrapped public call, and
// the result carries the per-layer metrics. README.md says which layers
// each workload stresses and which metrics each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// scratch holds temporary store directories and the span dump.
	scratch string
	// name is the workload, for file names.
	name string
}

// outcome is what a workload measured.
type outcome struct {
	gate   gate
	e2e    []row // end-to-end metrics of the untraced phase
	layers []row // per-layer metrics of the traced phase (trace mode only)
	notes  []string
}

var workloads = map[string]func(config) (*outcome, error){
	"sweep-local": runSweepLocal,
	"fleet-cold":  runFleetCold,
	"hub-warm":    runHubWarm,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: split the phase and report per-layer metrics from a traced half")
	scratch := fs.String("scratch", ".bench_build", "directory for temporary stores and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scratch: *scratch, name: *name}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rows := out.e2e
	if cfg.trace {
		rows = out.layers
	}

	printTable(stdout, "end to end (untraced)", out.e2e)
	if cfg.trace {
		printTable(stdout, "per layer (traced)", out.layers)
	}
	g := out.gate
	fmt.Fprintf(stdout, "%-44s %16.6f %-9s %d of %d cells failed\n", "failed_ratio", ratio(float64(g.failed), float64(g.attempted)), "ratio", g.failed, g.attempted)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range g.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{g.correct(), g.attempted, g.failed, map[string]metric{}}
	for _, r := range rows {
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !g.correct() {
		return 1
	}
	return 0
}

func printTable(w io.Writer, title string, rows []row) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %16.6f %-9s %s\n", r.name, r.value, r.unit, r.note)
	}
}
