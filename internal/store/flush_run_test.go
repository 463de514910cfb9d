package store_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/suite"
)

// TestFlushOneSyncPerRun: the suite runner's job-end Flush makes a
// run's puts durable under one fsync, and an all-hit run on a store
// with nothing unsynced costs none.
func TestFlushOneSyncPerRun(t *testing.T) {
	spec, err := suite.Parse(strings.NewReader(`{"name":"flush","seed":3,"trials":2,"max_steps":100000,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4}],"ops":["roundrobin"],"points":[{"n":2,"s":4}],
"tools":[{"name":"adaptive"},{"name":"pct","depth":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for run, want := range []struct{ misses, puts, syncs uint64 }{{2, 2, 1}, {0, 0, 0}} {
		before := st.Stats()
		rep, err := suite.RunContext(context.Background(), spec, nil, suite.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		got := struct{ misses, puts, syncs uint64 }{rep.StoreMisses, after.Puts - before.Puts, after.Syncs - before.Syncs}
		if got != want {
			t.Fatalf("run %d: %d misses, %d puts, %d fsyncs; want %d, %d, %d",
				run+1, got.misses, got.puts, got.syncs, want.misses, want.puts, want.syncs)
		}
	}
}
