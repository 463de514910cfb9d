// Package faultinject is the chaos harness for the dispatch layer:
// injectable failure hooks a fleet worker consults at the exact seams
// where real distributed failures strike — process death between lease
// grant and completion, and connections severed while a result is in
// flight. Production workers run with nil Hooks and pay a nil-check;
// chaos tests compose the helpers below to script precise failure
// sequences and then assert the sweep still completes with a
// byte-identical report.
package faultinject

import (
	"errors"
	"sync/atomic"
)

// ErrKilled is returned by Worker.Run when a KillBeforeExecute hook
// fires — the in-process analogue of kill -9: the worker stops
// polling and abandons every in-flight cell without completing or
// releasing anything.
var ErrKilled = errors.New("faultinject: worker killed")

// Hooks are the failure-injection points. Any field may be nil (never
// fires). All hooks must be safe for concurrent use — a worker calls
// them from its executor goroutines.
type Hooks struct {
	// KillBeforeExecute runs after a lease is granted and before its
	// cell executes. Returning true kills the worker: Run returns
	// ErrKilled immediately, the lease is never completed, and the hub
	// only learns via lease expiry.
	KillBeforeExecute func(cellID string) bool
	// SeverCompletion runs after a cell executed, before its completion
	// posts. Returning true drops the result on the floor — the
	// connection died between lease grant and completion, and the hub
	// must recover via expiry and retry.
	SeverCompletion func(cellID string) bool
}

// Kill reports whether the worker should die before executing cellID.
func (h *Hooks) Kill(cellID string) bool {
	if h == nil || h.KillBeforeExecute == nil {
		return false
	}
	return h.KillBeforeExecute(cellID)
}

// Sever reports whether to drop cellID's completion.
func (h *Hooks) Sever(cellID string) bool {
	if h == nil || h.SeverCompletion == nil {
		return false
	}
	return h.SeverCompletion(cellID)
}

// KillAfterCells builds a KillBeforeExecute hook that lets n cells
// start normally and kills the worker at the grant of cell n+1. n=0
// kills on the very first granted cell — death mid-sweep with a lease
// held.
func KillAfterCells(n int) func(string) bool {
	var started atomic.Int64
	return func(string) bool {
		return started.Add(1) > int64(n)
	}
}

// SeverFirstCompletions builds a SeverCompletion hook that drops the
// first n completions and lets the rest through — transient connection
// loss in the middle of a sweep.
func SeverFirstCompletions(n int) func(string) bool {
	var severed atomic.Int64
	return func(string) bool {
		return severed.Add(1) <= int64(n)
	}
}
