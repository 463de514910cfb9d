// ptest client: talk to a running ptestd. Seven verbs, shared -server
// and -api-key flags, the usual single validation-error path:
//
//	ptest client submit  -spec sweep.json [-priority 5] [-wait]
//	ptest client status  [job-id]
//	ptest client watch   <job-id>
//	ptest client report  <job-id> [-canonical] [-out report.json]
//	ptest client cancel  <job-id>
//	ptest client workers
//	ptest client events  [-follow] [-since N] [-type t] [-job id] [-tenant name]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/api"
	"repro/internal/eventlog"
	"repro/internal/report"
	"repro/internal/server"
)

const defaultServer = "http://127.0.0.1:8321"

func cmdClient(args []string) error {
	if len(args) == 0 {
		return usagef("client: want submit|status|watch|report|cancel|workers|events")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "submit":
		return clientSubmit(rest)
	case "status":
		return clientStatus(rest)
	case "watch":
		return clientWatch(rest)
	case "report":
		return clientReport(rest)
	case "cancel":
		return clientCancel(rest)
	case "workers":
		return clientWorkers(rest)
	case "events":
		return clientEvents(rest)
	}
	return usagef("client: unknown verb %q (want submit|status|watch|report|cancel|workers|events)", verb)
}

// clientConn registers the shared -server and -api-key flags and
// returns a constructor for the configured client. A -server that is
// not one hub's base URL fails flag parsing. An empty key sends no
// credential, so an anonymous hub sees byte-identical requests.
func clientConn(fs *flag.FlagSet) func() *server.Client {
	srv := defaultServer
	fs.Func("server", "ptestd base `URL` (default "+defaultServer+")", func(raw string) (err error) {
		srv, err = api.BaseURL(raw)
		return err
	})
	key := apiKeyFlag(fs)
	return func() *server.Client { return server.NewClient(srv, server.WithAPIKey(*key)) }
}

func clientSubmit(args []string) error {
	fs := flag.NewFlagSet("ptest client submit", flag.ContinueOnError)
	conn := clientConn(fs)
	var (
		specPath = fs.String("spec", "", "suite spec JSON file (required)")
		priority = fs.Int("priority", 0, "queue priority (higher runs first)")
		wait     = fs.Bool("wait", false, "stream progress and wait for the job to finish")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *specPath == "" {
		return usagef("client submit: -spec is required")
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return usageError{err}
	}
	defer f.Close()

	cli := conn()
	info, err := cli.Submit(context.Background(), f, *priority)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s: suite %s, %d cells, status %s\n",
		info.ID, info.Suite, info.TotalCells, info.Status)
	if !*wait {
		return nil
	}
	return watchJob(cli, info.ID)
}

func clientStatus(args []string) error {
	fs := flag.NewFlagSet("ptest client status", flag.ContinueOnError)
	conn := clientConn(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cli := conn()
	if fs.NArg() > 1 {
		return usagef("client status: want at most one job id")
	}
	if fs.NArg() == 1 {
		info, err := cli.Job(context.Background(), fs.Arg(0))
		if err != nil {
			return err
		}
		printJob(info)
		return nil
	}
	jobs, err := cli.Jobs(context.Background())
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	for _, info := range jobs {
		printJob(info)
	}
	return nil
}

func printJob(info server.JobInfo) {
	extra := ""
	if info.Status == server.JobRunning || info.Status.Terminal() {
		extra = fmt.Sprintf("  %d/%d cells", info.DoneCells, info.TotalCells)
		if info.StoreHits > 0 {
			extra += fmt.Sprintf(" (%d cached)", info.StoreHits)
		}
	}
	if info.Error != "" {
		extra += "  error: " + info.Error
	}
	fmt.Printf("%s  %-9s  prio=%d  %s%s\n", info.ID, info.Status, info.Priority, info.Suite, extra)
}

func clientWatch(args []string) error {
	fs := flag.NewFlagSet("ptest client watch", flag.ContinueOnError)
	conn := clientConn(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("client watch: want exactly one job id")
	}
	return watchJob(conn(), fs.Arg(0))
}

// watchJob streams plan-order cell completions and reports the terminal
// status; a failed/cancelled job exits 1 like a failed local run.
func watchJob(cli *server.Client, id string) error {
	final, err := cli.Watch(context.Background(), id, func(c report.Cell) {
		verdict := "clean"
		if c.Summary.Bugs > 0 {
			verdict = fmt.Sprintf("%d/%d bugs (first at trial %d)",
				c.Summary.Bugs, c.Summary.Trials, c.Summary.FirstBugTrial)
		}
		fmt.Printf("cell %-45s %s\n", c.ID, verdict)
	})
	if err != nil {
		return err
	}
	fmt.Printf("job %s: %s, %d/%d cells (%d cached, %d executed)\n",
		final.ID, final.Status, final.DoneCells, final.TotalCells,
		final.StoreHits, final.CellsExecuted)
	if final.Status != server.JobDone {
		return errFailed
	}
	return nil
}

func clientReport(args []string) error {
	fs := flag.NewFlagSet("ptest client report", flag.ContinueOnError)
	conn := clientConn(fs)
	var (
		canonical = fs.Bool("canonical", false, "fetch the canonical (timing-zeroed) report")
		outPath   = fs.String("out", "", "write the report here (default: stdout)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("client report: want exactly one job id")
	}
	raw, err := conn().ReportBytes(context.Background(), fs.Arg(0), *canonical)
	if err != nil {
		return err
	}
	if *outPath == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(*outPath, raw, 0o644)
}

// clientWorkers lists the hub's fleet: who is registered, who is live,
// what they hold and what they have finished.
func clientWorkers(args []string) error {
	fs := flag.NewFlagSet("ptest client workers", flag.ContinueOnError)
	conn := clientConn(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("client workers: no arguments")
	}
	workers, err := conn().Workers(context.Background())
	if err != nil {
		return err
	}
	if len(workers) == 0 {
		fmt.Println("no workers registered (jobs run in-process on the hub)")
		return nil
	}
	for _, wk := range workers {
		state := "live"
		if !wk.Live {
			state = "expired"
		}
		// batch is the worker's live lease:batch depth; a worker that has
		// not been granted anything yet renders as "-".
		batch := "-"
		if wk.LastBatch > 0 {
			batch = fmt.Sprintf("%d", wk.LastBatch)
		}
		fmt.Printf("%s  %-8s  %-20s  in-flight=%d  batch=%s  completed=%d  last-seen=%dms ago\n",
			wk.ID, state, wk.Name, wk.InFlight, batch, wk.Completed, wk.LastSeenAgoMS)
	}
	return nil
}

// clientEvents tails the fleet event log as JSONL on stdout — one event
// per line, exactly as the server recorded it, so the output pipes
// straight into jq or a file. Without -follow it prints the buffered
// backlog and exits; with -follow it streams live events over SSE,
// reconnecting with Last-Event-ID so nothing is seen twice.
func clientEvents(args []string) error {
	fs := flag.NewFlagSet("ptest client events", flag.ContinueOnError)
	conn := clientConn(fs)
	var (
		follow = fs.Bool("follow", false, "stay connected and stream live events (SSE)")
		since  = fs.Uint64("since", 0, "skip events with sequence <= N")
		typ    = fs.String("type", "", "filter by event type (exact or dot-prefix: `lease` matches lease.granted)")
		jobID  = fs.String("job", "", "filter by job id")
		tnt    = fs.String("tenant", "", "filter by tenant name")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("client events: no arguments (use flags to filter)")
	}
	f := server.EventsFilter{Type: *typ, Job: *jobID, Tenant: *tnt, Since: *since}
	enc := json.NewEncoder(os.Stdout)
	emit := func(e eventlog.Event) { _ = enc.Encode(e) }
	cli := conn()
	if *follow {
		return cli.TailEvents(context.Background(), f, emit)
	}
	page, err := cli.Events(context.Background(), f)
	if err != nil {
		return err
	}
	for _, e := range page.Events {
		emit(e)
	}
	if page.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "note: ring has dropped %d events; oldest shown is seq %d\n",
			page.Dropped, firstSeq(page.Events))
	}
	return nil
}

func firstSeq(evs []eventlog.Event) uint64 {
	if len(evs) == 0 {
		return 0
	}
	return evs[0].Seq
}

func clientCancel(args []string) error {
	fs := flag.NewFlagSet("ptest client cancel", flag.ContinueOnError)
	conn := clientConn(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("client cancel: want exactly one job id")
	}
	info, err := conn().Cancel(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("job %s: %s\n", info.ID, info.Status)
	return nil
}
