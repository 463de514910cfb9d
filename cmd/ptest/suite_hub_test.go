package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/server"
)

// smokeSpec is the committed 30-cell smoke sweep.
const smokeSpec = "../../examples/suite/smoke.json"

// TestSuiteHubURLMatchesLocalRun runs `ptest suite -hub-url` against an
// in-process hub. Its canonical report is the local run's byte for
// byte, its JSONL holds the same cells in plan order, a second run is
// served from the hub's store, and a hub that cannot be reached is a
// failure, never a local run.
func TestSuiteHubURLMatchesLocalRun(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	if err := cmdSuite([]string{"-quiet", "-spec", smokeSpec, "-canonical",
		"-out", path("local.json"), "-jsonl", path("local.jsonl")}); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, path("local.json"))
	wantCells := jsonlCells(t, path("local.jsonl"))
	if len(wantCells) != 30 {
		t.Fatalf("local run streamed %d cells, want 30", len(wantCells))
	}

	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hub := httptest.NewServer(srv.Handler())
	t.Cleanup(hub.Close)
	t.Cleanup(srv.Drain)

	for _, run := range []struct{ name, stderr string }{
		{"cold", "suite smoke: 0 cells from store, 30 executed\n"},
		{"warm", "suite smoke: 30 cells from store, 0 executed\n"},
	} {
		out, jsonl := path(run.name+".json"), path(run.name+".jsonl")
		stderr, err := captureStderr(t, func() error {
			return cmdSuite([]string{"-spec", smokeSpec, "-hub-url", hub.URL, "-canonical", "-out", out, "-jsonl", jsonl})
		})
		if err != nil {
			t.Fatalf("%s: %v\n%s", run.name, err, stderr)
		}
		if !strings.HasSuffix(stderr, run.stderr) {
			t.Errorf("%s: stderr %q, want it to end %q", run.name, stderr, run.stderr)
		}
		if got := readFile(t, out); !bytes.Equal(got, want) {
			t.Errorf("%s: hub report differs from the local run:\nwant:\n%s\ngot:\n%s", run.name, want, got)
		}
		if got := jsonlCells(t, jsonl); !reflect.DeepEqual(got, wantCells) {
			t.Errorf("%s: hub JSONL differs from the local run's", run.name)
		}
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	err = cmdSuite([]string{"-quiet", "-spec", smokeSpec, "-hub-url", dead.URL, "-out", path("dead.json")})
	if err == nil || errors.Is(err, flag.ErrHelp) || errors.As(err, &usageError{}) {
		t.Fatalf("unreachable hub: %v, want a runtime error (exit 1)", err)
	}
	if _, statErr := os.Stat(path("dead.json")); statErr == nil {
		t.Fatal("unreachable hub: a report was written")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jsonlCells decodes a JSONL stream with each cell's wall time zeroed,
// the one field that differs between runs.
func jsonlCells(t *testing.T, path string) []report.Cell {
	t.Helper()
	var cells []report.Cell
	for _, line := range bytes.SplitAfter(readFile(t, path), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var c report.Cell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatal(err)
		}
		c.WallMS = 0
		cells = append(cells, c)
	}
	return cells
}

// captureStderr runs f with os.Stderr sent to a file and returns what f
// wrote there.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stderr := os.Stderr
	os.Stderr = tmp
	runErr := f()
	os.Stderr = stderr
	return string(readFile(t, tmp.Name())), runErr
}
