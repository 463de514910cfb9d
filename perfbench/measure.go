package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// it may be reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported. A tail percentile (q > 0.5) is reportable
// only when at least minBeyond samples lie above its rank; the median
// needs one sample.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	if q > 0.5 && n-1-rank < minBeyond {
		return s[rank], false
	}
	return s[rank], true
}

// median is the middle of xs, averaging the two middle samples of an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// row is one printed metric. note carries the sample count and, for a
// tail, which statistic the value is.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

// medianRow reports the median of samples with their count.
func medianRow(name, unit string, samples []float64) row {
	return row{name, median(samples), unit, fmt.Sprintf("median, n=%d", len(samples))}
}

// tailRow reports the q-quantile of samples when enough samples lie
// beyond it, and otherwise the largest sample, saying which it printed.
func tailRow(name, unit string, samples []float64, q float64) row {
	v, ok := percentile(samples, q)
	if ok {
		return row{name, v, unit, fmt.Sprintf("p%g, n=%d", 100*q, len(samples))}
	}
	return row{name, maxOf(samples), unit,
		fmt.Sprintf("max, n=%d: fewer than %d samples beyond p%g", len(samples), minBeyond, 100*q)}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// e2eNames are the end-to-end metrics every untraced run reports.
func e2eNames() []string {
	var names []string
	for _, r := range endToEnd(nil, nil, 0, 0, 0) {
		names = append(names, r.name)
	}
	return names
}

// endToEnd is the untraced phase's result: the set-up times, the
// latencies of jobs that passed the gate, the cells they completed, and
// the phase's wall and CPU time.
func endToEnd(setups, lat []float64, cells int, wall, cpu time.Duration) []row {
	return []row{
		medianRow("setup_s", "s", setups),
		{"cells_per_s", ratio(float64(cells), wall.Seconds()), "cells/s", fmt.Sprintf("%d cells in %.2f s", cells, wall.Seconds())},
		medianRow("job_p50_ms", "ms", lat),
		tailRow("job_p99_ms", "ms", lat, 0.99),
		{"cpu_ms_per_cell", ratio(ms(cpu), float64(cells)), "ms", fmt.Sprintf("%.0f ms user+sys over %d cells", ms(cpu), cells)},
		{"peak_rss_mb", peakRSSMiB(), "MiB", "process peak resident set"},
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newRand is the benchmark's seeded generator for input orders.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
