package master_test

import (
	"runtime"
	"testing"

	"repro/internal/master"
	"repro/internal/platform"
)

// TestThreadEndingsUnderRunLoop runs every TestThreadEndings case under
// the platform's run loop, where a thread completes its own requests
// and the loop runs on its stack; a shutdown from the loop's callback
// kills the thread running it, which unwinds at the handoff. Each
// ending must leave exactly what it leaves on a bare OS.
func TestThreadEndingsUnderRunLoop(t *testing.T) {
	for _, tc := range master.ThreadEndings() {
		t.Run(tc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p, err := platform.New(platform.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Shutdown()
			events := master.RecordEvents(p.Master)
			tc.Run(t, p.Master, func(steps int, then func()) {
				if steps == 0 {
					then()
					return
				}
				n := 0
				p.Run(steps, func(alive bool) bool {
					if n++; n < steps && alive {
						return false
					}
					if then != nil {
						then()
					}
					return true
				})
			})
			tc.Check(t, p.Master, *events)
			master.SettleGoroutines(t, before)
		})
	}
}
