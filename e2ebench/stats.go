package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the percentile levels a tail may be reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the 1-based nearest-rank index of percentile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the q-th percentile's
// nearest rank in n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailLevel returns the highest percentile level that keeps at least
// minBeyond samples beyond it in n samples (0 when none does).
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank q-th percentile of the sorted
// samples (0 for none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// windowSamples is the fewest samples one latency window holds: enough
// to leave ten beyond its p95.
const windowSamples = 200

// windowedPercentile splits samples, in send order, into as many
// consecutive windows of at least windowSamples as they fill (one when
// there are fewer) and returns the median over windows of each window's
// q-th percentile, with the window count. A host stall that lands in one
// window then moves the reported tail less than it moves a pooled one.
func windowedPercentile(samples []float64, q float64) (float64, int) {
	w := max(1, len(samples)/windowSamples)
	per := make([]float64, w)
	for i := range per {
		win := append([]float64(nil), samples[i*len(samples)/w:(i+1)*len(samples)/w]...)
		sort.Float64s(win)
		per[i] = percentile(win, q)
	}
	return median(per), w
}

// median returns the median of xs (mean of the middle pair for an even
// count; 0 for none). xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	allCPU     float64 // seconds, as the runtime accounts them
}

// minus is the change from v to u.
func (u usage) minus(v usage) usage {
	return usage{u.cpu - v.cpu, u.totalAlloc - v.totalAlloc, u.gcCycles - v.gcCycles, u.gcCPU - v.gcCPU, u.allCPU - v.allCPU}
}

func (u usage) plus(v usage) usage {
	return usage{u.cpu + v.cpu, u.totalAlloc + v.totalAlloc, u.gcCycles + v.gcCycles, u.gcCPU + v.gcCPU, u.allCPU + v.allCPU}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		gcCycles:   samples[0].Value.Uint64(),
		gcCPU:      samples[1].Value.Float64(),
		allCPU:     samples[2].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
