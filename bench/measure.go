package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide counters the end-to-end
// and GC metrics are differences of.
type procSample struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU of the whole process
	allocs   uint64        // heap objects allocated since start
	bytes    uint64        // heap bytes allocated since start
	gcCPU    float64       // estimated GC CPU seconds since start
	gcCycles uint64
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the peak resident set of the process so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSample() procSample {
	s := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var gcCPU float64
	if s[2].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[2].Value.Float64()
	}
	return procSample{
		wall: time.Now(), cpu: processCPU(),
		allocs: u(0), bytes: u(1), gcCPU: gcCPU, gcCycles: u(3),
	}
}

// gcPauseTotal is the cumulative stop-the-world pause time. It stops the
// world briefly itself, so it is read only at phase boundaries.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) with the
// default exclusive method, which the steadiness mode reports.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
