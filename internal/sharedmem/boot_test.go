package sharedmem_test

import (
	"runtime"
	"testing"

	"repro/internal/hw"
)

var bootSink *hw.SoC

// TestBootAllocatesUnder32KB boots the platform's SoC and checks the
// heap bytes it allocates: the 250 KB SRAM is backed lazily, so a boot
// costs the mailboxes, interrupt controllers and clock, not the SRAM.
func TestBootAllocatesUnder32KB(t *testing.T) {
	const boots = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		bootSink = hw.New(hw.Config{})
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / boots
	if perBoot >= 32*1024 {
		t.Fatalf("hw.New allocates %d bytes per boot, want under 32 KB", perBoot)
	}
	if got := bootSink.SRAM.Size(); got != 250*1024 {
		t.Fatalf("SRAM capacity %d, want 250 KB", got)
	}
}
