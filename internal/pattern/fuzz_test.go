package pattern

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// fuzzSources decodes fuzz bytes into merge sources: a byte of 0xf0 or
// above ends the current source (so empty sources occur), and any other
// byte is a symbol from an eight-letter alphabet. It keeps the input
// small: at most 48 sources and 256 symbols.
func fuzzSources(data []byte) [][]string {
	alphabet := []string{"TC", "TD", "TS", "TR", "TCH", "TY", "X", "Y"}
	sources := [][]string{nil}
	total := 0
	for _, b := range data {
		if b >= 0xf0 {
			if len(sources) == 48 {
				break
			}
			sources = append(sources, nil)
			continue
		}
		if total == 256 {
			break
		}
		last := len(sources) - 1
		sources[last] = append(sources[last], alphabet[b%8])
		total++
	}
	return sources
}

// FuzzPerTaskInvertsMerge checks the invariant PerTask's doc comment
// states: for any sources and every Op, Merge(...).PerTask() gives the
// sources back, nil for an empty one, each sequence capped at its own
// length so that appending to one cannot overwrite its neighbour.
func FuzzPerTaskInvertsMerge(f *testing.F) {
	f.Add(uint64(77), []byte{0, 1, 2, 0xf0, 3, 4, 0xf0, 5, 6, 7, 0})
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0xf0, 0xf0, 1, 0xf0})
	f.Add(uint64(3), slices.Repeat([]byte{1, 0xf1}, 40))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		sources := fuzzSources(data)
		opts := Options{Subseq: int(seed % 4), MaxSubseq: int((seed >> 2) % 5)}
		for i := range sources {
			opts.Weights = append(opts.Weights, float64((seed>>(i%60))%4))
		}
		for _, op := range Ops() {
			m, err := Merge(sources, op, stats.New(seed), opts)
			if err != nil {
				t.Fatalf("%v: %v", op, err)
			}
			back := m.PerTask()
			if len(back) != len(sources) {
				t.Fatalf("%v: %d tasks back, want %d", op, len(back), len(sources))
			}
			for i, src := range sources {
				if !slices.Equal(back[i], src) || (back[i] == nil) != (len(src) == 0) {
					t.Fatalf("%v: task %d got %q, want %q", op, i, back[i], src)
				}
				if cap(back[i]) != len(back[i]) {
					t.Fatalf("%v: task %d has capacity %d past its %d symbols", op, i, cap(back[i]), len(back[i]))
				}
			}
		}
	})
}
