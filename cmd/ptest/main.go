// Command ptest is the reproduction's CLI. It grew from a single
// campaign runner into a small toolbox:
//
//	ptest run      one campaign against the simulated platform (the
//	               original behavior; "ptest -pcore ..." still works)
//	ptest suite    expand a declarative matrix spec into a run plan,
//	               execute every cell, and emit machine-readable reports
//	               — locally, or with -hub-url as a job on a hub ptestd
//	ptest compare  diff two suite reports and fail on regressions —
//	               the CI gate
//	ptest serve    run ptestd, the campaign job server: HTTP submissions,
//	               bounded priority queue, worker pool, SSE progress,
//	               content-addressed result store, graceful drain — or,
//	               with -hub-url, join another ptestd's fleet as a
//	               lease-polling cell worker
//	ptest client   talk to a ptestd: submit|status|watch|report|cancel|
//	               workers|events
//	ptest tools    list the registered testing tools and workloads
//	ptest store    administer a result store directory (stat, compact)
//
// Every tool and workload name above resolves through the
// internal/tool and internal/workload registries: `ptest run -tool
// pct`, suite specs, ptestd jobs and the result store all pick up a
// newly registered tool with no CLI edits.
//
// Usage:
//
//	ptest run -pcore -n 16 -s 24 -workload quicksort -gc-leak-every 2
//	ptest run -re 'TC (TS TR)+ TD$' -n 3 -s 41 -op cyclic -workload philosophers
//	ptest suite -spec examples/suite/smoke.json -out report.json -jsonl cells.jsonl
//	ptest suite -spec sweep.json -store ~/.cache/ptest-store   # warm cells skip execution
//	ptest suite -spec sweep.json -hub-url http://hub:8321      # run it as a job on a hub ptestd
//	ptest compare -max-rate-drop 0.05 baseline.json report.json
//	ptest serve -addr :8321 -store /var/lib/ptestd/store
//	ptest serve -hub-url http://hub:8321 -name rack3   # fleet cell worker
//	ptest serve -addr :8321 -events 8192               # + /api/v1/events and /ui
//	ptest client submit -spec sweep.json -priority 5 -wait
//	ptest client workers                               # fleet membership
//	ptest client events -follow -type lease            # tail the event log
//
// Exit codes: 0 success, 1 failure found / regression / runtime error,
// 2 flag or spec validation error. All errors print one greppable
// "ptest: error: ..." line to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

// usageError marks flag/spec validation failures: every bad input —
// unknown flag, unparsable spec, invalid value — routes through it so
// the process exits 2 with one greppable message and a usage hint
// instead of the ad-hoc os.Exit scatter this file used to have.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// errFailed signals an unhealthy-but-expected outcome (bugs found,
// regression detected) whose details the subcommand already printed:
// exit 1 with no extra stderr line.
var errFailed = errors.New("failed")

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}

	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "suite":
		err = cmdSuite(args)
	case "compare":
		err = cmdCompare(args)
	case "serve":
		err = cmdServe(args)
	case "client":
		err = cmdClient(args)
	case "tools":
		err = cmdTools(args)
	case "store":
		err = cmdStoreAdmin(args)
	case "help":
		usage(os.Stdout)
	default:
		err = usagef("unknown subcommand %q (want run|suite|compare|serve|client|tools|store|help)", cmd)
	}

	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// "-h" printed the flag list already; a help request succeeds.
	case errors.Is(err, errFailed):
		os.Exit(1)
	case errors.As(err, &usageError{}):
		fmt.Fprintf(os.Stderr, "ptest: error: %v\n", err)
		fmt.Fprintln(os.Stderr, `run "ptest help" for usage`)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "ptest: error: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags runs a subcommand's flag set and converts parse errors
// into the shared usage-error path. A "-h" help request passes through
// unwrapped so main exits 0 for it.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

func usage(w *os.File) {
	fmt.Fprint(w, `ptest — adaptive testing for concurrent software on a simulated multicore

subcommands:
  run      run one campaign (default when the first argument is a flag)
  suite    expand a matrix spec, run every cell, write JSON/JSONL reports;
           with -hub-url, run it as a job on a hub ptestd instead
  compare  diff two suite reports; exit non-zero on regression
  serve    run ptestd, the campaign job server (HTTP + SSE + result store);
           -events N adds the fleet event log and /ui dashboard;
           with -hub-url, join a hub's fleet as a cell worker instead
  client   talk to a ptestd: submit|status|watch|report|cancel|workers|events
  tools    list the registered testing tools and workloads
  store    administer a result store directory (stat, compact)
  help     print this text

run "ptest <subcommand> -h" for that subcommand's flags.

exit codes: 0 ok; 1 failures found, regression, or runtime error;
2 invalid flags or spec.
`)
}
