package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile reads the q-quantile of sorted values by linear interpolation
// between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// p99 is the 99th percentile when at least ten samples lie beyond it, and 0
// (not measured) otherwise.
func p99(sorted []float64) float64 {
	if len(sorted) < 1000 {
		return 0
	}
	return quantile(sorted, 0.99)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeReading is a point-in-time reading of the Go runtime and the
// process's CPU time.
type runtimeReading struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds, as estimated by the runtime
	cpu        float64 // user + system seconds of the process
}

// runtimeDelta is the difference of two readings over a timed phase.
type runtimeDelta = runtimeReading

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeReading{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		cpu:        cpu.Seconds(),
	}
}

func (r runtimeReading) sub(b runtimeReading) runtimeDelta {
	return runtimeDelta{
		allocBytes: r.allocBytes - b.allocBytes,
		gcCycles:   r.gcCycles - b.gcCycles,
		gcCPU:      r.gcCPU - b.gcCPU,
		cpu:        r.cpu - b.cpu,
	}
}
