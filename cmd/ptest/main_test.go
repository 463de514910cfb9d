package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/store"
)

func wantUsageError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want usage error, got nil")
	}
	if !errors.As(err, &usageError{}) {
		t.Fatalf("want usageError (exit 2), got %T: %v", err, err)
	}
}

func TestRunValidationRoutesThroughUsageError(t *testing.T) {
	// Every bad-input shape lands on the same error path.
	wantUsageError(t, cmdRun(nil))                                           // no -re/-pcore
	wantUsageError(t, cmdRun([]string{"-pcore", "-workload", "nosuch"}))     // unknown workload
	wantUsageError(t, cmdRun([]string{"-pcore", "-op", "bogus"}))            // unknown merge op
	wantUsageError(t, cmdRun([]string{"-pcore", "-pd", "garbage"}))          // bad PD syntax
	wantUsageError(t, cmdRun([]string{"-no-such-flag"}))                     // flag parse error
	wantUsageError(t, cmdSuite(nil))                                         // missing -spec
	wantUsageError(t, cmdSuite([]string{"-spec", "/nonexistent/spec.json"})) // unreadable spec
	wantUsageError(t, cmdCompare([]string{"only-one.json"}))                 // wrong arity
	wantUsageError(t, cmdServe([]string{"-queue", "0"}))                     // unbounded queue
	wantUsageError(t, cmdClient(nil))                                        // missing verb
	wantUsageError(t, cmdClient([]string{"bogus"}))                          // unknown verb
	wantUsageError(t, cmdClient([]string{"submit"}))                         // missing -spec
	wantUsageError(t, cmdClient([]string{"submit", "-spec", "/nonexistent/spec.json"}))
	wantUsageError(t, cmdClient([]string{"watch"}))                               // missing job id
	wantUsageError(t, cmdClient([]string{"report", "a", "b"}))                    // wrong arity
	wantUsageError(t, cmdClient([]string{"cancel"}))                              // missing job id
	wantUsageError(t, cmdRun([]string{"-pcore", "-store", "x", "-dump-journal"})) // store vs journal
	wantUsageError(t, cmdStoreAdmin(nil))                                         // missing verb
	wantUsageError(t, cmdStoreAdmin([]string{"bogus"}))                           // unknown verb
	wantUsageError(t, cmdStoreAdmin([]string{"compact"}))                         // missing -dir
	wantUsageError(t, cmdServe([]string{"-store-autocompact", "1"}))              // autocompact needs -store
	// A -hub-url run is the hub's job: the local store and width flags
	// do not apply. The URL is never dialled.
	for _, local := range [][]string{{"-store", "a"}, {"-store-mem", "8"}, {"-cells", "2"}} {
		wantUsageError(t, cmdSuite(append([]string{"-spec", smokeSpec, "-hub-url", "http://127.0.0.1:1"}, local...)))
	}
	wantUsageError(t, cmdSuite([]string{"-spec", smokeSpec, "-hub-url", "hub:8321"})) // no scheme
	// A list of hubs, which url.Parse reads as the one host "127.0.0.1:1,http:".
	wantUsageError(t, cmdSuite([]string{"-spec", smokeSpec, "-hub-url", "http://127.0.0.1:1,http://127.0.0.1:2"}))
	wantUsageError(t, cmdClient([]string{"status", "-server", "hub:8321", "x"})) // no scheme
	wantUsageError(t, cmdClient([]string{"status", "-server", "http://127.0.0.1:1,http://127.0.0.1:2", "x"}))
}

func TestServeHasNoRemoteStoreFlags(t *testing.T) {
	// A job is the only way into a hub's store: no subcommand takes a
	// flag to read, write or meter it directly. The trailing -queue 0
	// keeps a serve regression from starting a listener.
	for _, tc := range []struct {
		cmd  string
		run  func([]string) error
		args []string
	}{
		{"suite", cmdSuite, []string{"-store-url", "http://127.0.0.1:1"}},
		{"suite", cmdSuite, []string{"-store-batch", "1"}},
		{"run", cmdRun, []string{"-store-url", "http://127.0.0.1:1"}},
		{"run", cmdRun, []string{"-store-batch", "1"}},
		{"run", cmdRun, []string{"-api-key", "k"}},
		{"serve", cmdServe, []string{"-store-url", "http://127.0.0.1:1", "-queue", "0"}},
		{"serve", cmdServe, []string{"-store-batch", "1", "-queue", "0"}},
		{"serve", cmdServe, []string{"-cells-rate", "1", "-queue", "0"}},
		{"serve", cmdServe, []string{"-cells-burst", "1", "-queue", "0"}},
	} {
		err := tc.run(tc.args)
		wantUsageError(t, err)
		if !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s %s: %v, want an unknown-flag error", tc.cmd, tc.args[0], err)
		}
	}
}

func TestHelpRequestIsNotAnError(t *testing.T) {
	err := cmdRun([]string{"-h"})
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("want flag.ErrHelp, got %v", err)
	}
	if errors.As(err, &usageError{}) {
		t.Fatal("help request classified as usage error (would exit 2)")
	}
}

func TestRunCleanWorkloadSucceeds(t *testing.T) {
	if err := cmdRun([]string{"-pcore", "-n", "2", "-s", "4", "-json"}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

func TestRunFaultyWorkloadExitsFailed(t *testing.T) {
	err := cmdRun([]string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "3", "-json"})
	if !errors.Is(err, errFailed) {
		t.Fatalf("want errFailed (exit 1), got %v", err)
	}
}

func TestRunViaStoreCachesAcrossInvocations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "2", "-keep-going", "-json", "-store", dir}
	// Cold: executes and stores; the faulty workload exits 1.
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("cold run: want errFailed, got %v", err)
	}
	// Warm: the cached cell must reproduce the verdict without executing.
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("warm run: want errFailed, got %v", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.DiskEntries != 1 {
		t.Fatalf("two identical runs stored %d cells, want 1", got.DiskEntries)
	}
}

func TestStoreCompactCLIKeepsWarmReplay(t *testing.T) {
	// The CLI acceptance loop: run with -store, `ptest store compact`,
	// run again — the warm run is served entirely from the compacted
	// store and stat shows zero reclaimable bytes.
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "2", "-keep-going", "-json", "-store", dir}
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("cold run: want errFailed, got %v", err)
	}
	if err := cmdStoreAdmin([]string{"compact", "-dir", dir, "-json"}); err != nil {
		t.Fatalf("store compact: %v", err)
	}
	ds, err := store.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.LiveEntries != 1 || ds.TotalBytes != ds.LiveBytes {
		t.Fatalf("stat after compact: %+v (want 1 live entry, 0 reclaimable)", ds)
	}
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("warm run after compact: want errFailed (cached verdict), got %v", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.DiskEntries != 1 {
		t.Fatalf("store grew across compact+warm run: %+v", got)
	}
}

func writeReport(t *testing.T, dir, name string, rate float64) string {
	t.Helper()
	r := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Suite:         "t",
		Cells: []report.Cell{{
			ID: "w/c", Workload: "w", Tool: "adaptive", N: 1,
			Summary: report.CampaignSummary{Trials: 10, BugRate: rate},
		}},
	}
	r.Aggregate()
	path := filepath.Join(dir, name)
	if err := report.WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 0.5)
	same := writeReport(t, dir, "same.json", 0.5)
	worse := writeReport(t, dir, "worse.json", 0.2)

	if err := cmdCompare([]string{base, same}); err != nil {
		t.Fatalf("identical reports must pass: %v", err)
	}
	if err := cmdCompare([]string{base, worse}); !errors.Is(err, errFailed) {
		t.Fatalf("regression must exit non-zero, got %v", err)
	}
	// A threshold wide enough to absorb the drop passes the gate.
	if err := cmdCompare([]string{"-max-rate-drop", "0.4", base, worse}); err != nil {
		t.Fatalf("drop within threshold must pass: %v", err)
	}
}

func TestSuiteEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{
		"name": "cli-e2e",
		"trials": 1,
		"max_steps": 100000,
		"workloads": [{"name": "spin"}],
		"ops": ["roundrobin"],
		"points": [{"n": 2, "s": 4}],
		"tools": [{"name": "adaptive"}]
	}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "report.json")
	if err := cmdSuite([]string{"-quiet", "-spec", spec, "-out", out, "-canonical"}); err != nil {
		t.Fatal(err)
	}
	rep, err := report.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Tool != "adaptive" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.WallMS != 0 {
		t.Fatal("-canonical left timing fields")
	}
	// The fresh report compared against itself passes the gate.
	if err := cmdCompare([]string{out, out}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
}

// TestRunDumpJournalOutputIsPinned pins `ptest run -dump-journal`
// byte for byte: the report's journal is rendered lazily from a frozen
// view, and it must print what an eager dump taken at detection printed.
// The second run issues 7,033 commands, so its journal has crossed the
// default 4,096-entry bound and evicted before the lost wakeup fires.
func TestRunDumpJournalOutputIsPinned(t *testing.T) {
	cases := []struct {
		args   []string
		sha256 string
	}{
		{[]string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
			"-gc-leak-every", "2", "-trials", "12"},
			"c4c7b8a0e7dbf6a80aef875538c8b06d8e63c9095cb66330294ff581a2b99494"},
		{[]string{"-re", "TC (TS TR)+ TD$", "-pd", "^:TC=1,TC:TS=1,TS:TR=1,TR:TS=1,TR:TD=0",
			"-n", "16", "-s", "600", "-workload", "spin", "-drop-resume-every", "3500"},
			"9f0c720452063f2cce5260f8b293d0a0fc9483c4d12d051ba694d4b354568997"},
	}
	for _, tc := range cases {
		out, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = out
		runErr := cmdRun(append(tc.args, "-dump-journal"))
		os.Stdout = stdout
		if !errors.Is(runErr, errFailed) {
			t.Fatalf("%v: want errFailed, got %v", tc.args, runErr)
		}
		if _, err := out.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, out); err != nil {
			t.Fatal(err)
		}
		out.Close()
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%v: output sha256 %s, want %s", tc.args, got, tc.sha256)
		}
	}
}
