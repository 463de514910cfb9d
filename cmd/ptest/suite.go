// ptest suite: expand a declarative matrix spec into a deterministic
// run plan, execute every cell, and write the machine-readable reports
// CI diffs run-over-run. With -store, cells already computed by any
// entry point (run, suite, a ptestd job) are served from the
// content-addressed result store instead of re-executing. With
// -hub-url the spec runs as a job on a hub ptestd instead, whose store
// and fleet serve it; the same report and JSONL come back over the job
// API. SIGINT mid-sweep flushes the completed plan-order prefix and
// writes a partial report marked "interrupted": true instead of dying
// mid-write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/api"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/suite"
)

func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("ptest suite", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "suite spec JSON file (required)")
		outPath   = fs.String("out", "", "aggregated JSON report path (default: stdout)")
		jsonlPath = fs.String("jsonl", "", "per-cell JSONL stream path (optional)")
		canonical = fs.Bool("canonical", false, "zero timing fields in the report (for committed baselines)")
		cells     = fs.Int("cells", 0, "cell workers: overrides the spec's cell_parallelism (0 = keep spec)")
		storeDir  = fs.String("store", "", "content-addressed result store directory (cells found there are not re-executed)")
		storeMem  = fs.Int("store-mem", 4096, "result-store in-memory LRU entries")
		apiKey    = apiKeyFlag(fs)
		quiet     = fs.Bool("quiet", false, "suppress the per-cell progress summary on stderr")
		hubURL    string
	)
	fs.Func("hub-url", "run the spec as a job on the hub ptestd at this base `URL`, whose store and fleet serve its cells (not with -store, -store-mem or -cells)", func(raw string) (err error) {
		hubURL, err = api.BaseURL(raw)
		return err
	})
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *specPath == "" {
		return usagef("suite: -spec is required")
	}
	if hubURL != "" {
		// The hub runs the job on its own store and CPUs; these flags
		// shape a local run only.
		var local string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "store", "store-mem", "cells":
				local = f.Name
			}
		})
		if local != "" {
			return usagef("suite: -%s does not apply with -hub-url", local)
		}
	}
	spec, err := suite.ParseFile(*specPath)
	if err != nil {
		return usageError{err}
	}
	if *cells != 0 {
		spec.CellParallelism = *cells
	}

	var opts suite.Options
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir, MemEntries: *storeMem})
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}

	var jsonl io.Writer
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = f
	}

	// SIGINT/SIGTERM stop the sweep at the next cell boundary; the
	// completed prefix still comes back as an interrupted partial report.
	// After the first signal the handler is released, so a second Ctrl-C
	// kills the process instead of being swallowed while a long cell
	// finishes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
			signal.Stop(sigc)
			fmt.Fprintln(os.Stderr, "suite: interrupt — finishing the current cell (interrupt again to abort hard)")
			cancel()
		case <-ctx.Done():
		}
	}()

	var rep *report.Report
	if hubURL != "" {
		rep, err = runOnHub(ctx, server.NewClient(hubURL, server.WithAPIKey(*apiKey)), *specPath, jsonl)
	} else {
		rep, err = suite.RunContext(ctx, spec, jsonl, opts)
	}
	if err != nil && !errors.Is(err, suite.ErrInterrupted) {
		return err
	}
	// Capture before Canonical zeroes the store counters.
	storeHits, storeMisses := rep.StoreHits, rep.StoreMisses
	if *canonical {
		rep = report.Canonical(rep)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "suite %s: %d cells, %d with bugs (detection rate %.2f), %d trials, %d bugs\n",
			rep.Suite, rep.Totals.Cells, rep.Totals.CellsWithBugs,
			rep.Totals.DetectionRate, rep.Totals.Trials, rep.Totals.Bugs)
		if opts.Store != nil || hubURL != "" {
			fmt.Fprintf(os.Stderr, "suite %s: %d cells from store, %d executed\n",
				rep.Suite, storeHits, storeMisses)
		}
	}
	var writeErr error
	if *outPath == "" {
		writeErr = report.Write(os.Stdout, rep)
	} else {
		writeErr = report.WriteFile(*outPath, rep)
	}
	if writeErr != nil {
		return writeErr
	}
	if rep.Interrupted {
		fmt.Fprintf(os.Stderr, "suite %s: interrupted after %d cells — partial report marked \"interrupted\": true\n",
			rep.Suite, rep.Totals.Cells)
		return errFailed
	}
	return nil
}

// runOnHub is `ptest suite -hub-url`: it submits the spec file as a
// job, writes each cell the job's event stream delivers to jsonl, and
// returns the job's report, whose store counters are the job's. Once
// ctx is cancelled the job is cancelled on the hub, and its partial
// report comes back marked interrupted. A hub that cannot be reached,
// forgets the job or fails it is an error: the run never falls back to
// computing the cells here.
func runOnHub(ctx context.Context, cli *server.Client, specPath string, jsonl io.Writer) (*report.Report, error) {
	f, err := os.Open(specPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The job's own calls outlive an interrupt: it cancels the job, and
	// the job's end and partial report are still read.
	jobCtx := context.WithoutCancel(ctx)
	info, err := cli.Submit(jobCtx, f, 0)
	if err != nil {
		return nil, fmt.Errorf("suite: submitting %s: %w", specPath, err)
	}
	// A cancel that fails (the job already ended) leaves the outcome to
	// the event stream.
	stop := context.AfterFunc(ctx, func() { _, _ = cli.Cancel(jobCtx, info.ID) })
	defer stop()
	var jsonlErr error
	final, err := cli.Watch(jobCtx, info.ID, func(c report.Cell) {
		if jsonl != nil && jsonlErr == nil {
			jsonlErr = report.WriteJSONL(jsonl, c)
		}
	})
	switch {
	case err != nil:
		return nil, fmt.Errorf("suite: following hub job %s: %w", info.ID, err)
	case jsonlErr != nil:
		return nil, fmt.Errorf("suite: streaming JSONL: %w", jsonlErr)
	case final.Status != server.JobDone && final.Status != server.JobCancelled:
		return nil, fmt.Errorf("suite: hub job %s %s: %s", final.ID, final.Status, final.Error)
	}
	rep, err := cli.Report(jobCtx, info.ID, false)
	if err != nil {
		return nil, fmt.Errorf("suite: fetching hub job %s's report: %w", info.ID, err)
	}
	return rep, nil
}
