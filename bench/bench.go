package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// bench is one workload run: its options, the metrics it reports and
// its operation accounting.
type bench struct {
	seed    int64
	budget  time.Duration // length of the timed phase
	traced  bool
	workdir string
	// claimants is how many campaigns run side by side in a round.
	claimants int

	metrics   map[string]metric
	attempted int64 // cells the workload tried to resolve
	failed    int64 // cells whose run failed or whose output check failed

	setups []time.Duration // one per set-up performed; setup_s is their median
	spans  *spans          // the traced phase's layer spans (nil when untraced)
	prof   *profFold       // the traced phase's folded CPU profile
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// fail records n failed cells and why; the workload carries on.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += int64(n)
	fmt.Fprintf(os.Stderr, "bench: FAILED (%d cell(s)): %s\n", n, fmt.Sprintf(format, args...))
}

// check fails one cell with the message when ok is false.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.fail(1, format, args...)
	}
	return ok
}

// stopwatch accumulates the timed parts of one phase: rounds call
// start and stop around the work being measured, so per-round set-up
// and output checks stay outside the figures.
type stopwatch struct {
	b       *bench
	profile bool

	on     procSample
	pauseT time.Duration
	buf    bytes.Buffer

	rounds []roundFigures
	cur    roundFigures
	total  procDelta
	pause  time.Duration
}

type roundFigures struct {
	cells int
	wall  time.Duration
	cpu   time.Duration
}

type procDelta struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
	gcCPU         float64
	gcCycles      uint64
}

func (s *stopwatch) start() {
	s.pauseT = gcPauseTotal()
	if s.profile {
		s.buf.Reset()
		if err := pprof.StartCPUProfile(&s.buf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
	}
	s.on = takeSample()
}

func (s *stopwatch) stop() {
	off := takeSample()
	if s.profile {
		pprof.StopCPUProfile()
		if err := s.b.prof.add(s.buf.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
	}
	s.pause += gcPauseTotal() - s.pauseT
	d := procDelta{
		wall: off.wall.Sub(s.on.wall), cpu: off.cpu - s.on.cpu,
		allocs: off.allocs - s.on.allocs, bytes: off.bytes - s.on.bytes,
		gcCPU: off.gcCPU - s.on.gcCPU, gcCycles: off.gcCycles - s.on.gcCycles,
	}
	s.cur.wall += d.wall
	s.cur.cpu += d.cpu
	s.total.wall += d.wall
	s.total.cpu += d.cpu
	s.total.allocs += d.allocs
	s.total.bytes += d.bytes
	s.total.gcCPU += d.gcCPU
	s.total.gcCycles += d.gcCycles
}

// phase runs whole rounds until the budget of timed work is spent (and
// at least minRounds). Each round returns the cells it attempted.
func (b *bench) phase(budget time.Duration, minRounds int, profile bool, round func(i int, sw *stopwatch) int) *stopwatch {
	sw := &stopwatch{b: b, profile: profile}
	for i := 0; i < minRounds || sw.total.wall < budget; i++ {
		sw.cur = roundFigures{}
		// Every round starts from a collected heap, so the previous
		// round's garbage is not charged to this round's set-up.
		runtime.GC()
		cells := round(i, sw)
		sw.cur.cells = cells
		b.attempted += int64(cells)
		if cells > 0 && sw.cur.wall > 0 {
			sw.rounds = append(sw.rounds, sw.cur)
		}
	}
	return sw
}

func (s *stopwatch) cells() int {
	n := 0
	for _, r := range s.rounds {
		n += r.cells
	}
	return n
}

// cellsPerMin is the median over rounds of each round's cell rate.
func (s *stopwatch) cellsPerMin() float64 {
	var v []float64
	for _, r := range s.rounds {
		v = append(v, float64(r.cells)/r.wall.Minutes())
	}
	return median(v)
}

// cpuMsPerCell is the median over rounds of each round's process CPU
// per cell.
func (s *stopwatch) cpuMsPerCell() float64 {
	var v []float64
	for _, r := range s.rounds {
		v = append(v, float64(r.cpu)/1e6/float64(r.cells))
	}
	return median(v)
}

// report sets the end-to-end metrics (untraced runs) or the process-wide
// layer metrics (traced runs) from a measured phase.
func (b *bench) report(sw *stopwatch) {
	n := float64(sw.cells())
	if n == 0 {
		return
	}
	b.set("setup_s", medianDuration(b.setups).Seconds(), "s")
	b.set("cells_per_min", sw.cellsPerMin(), "cells/min")
	b.set("cpu_ms_per_cell", sw.cpuMsPerCell(), "ms")
	b.set("allocs_per_cell", float64(sw.total.allocs)/n, "count")
	b.set("alloc_kb_per_cell", float64(sw.total.bytes)/1024/n, "KiB")
	b.set("max_rss_mb", maxRSSMiB(), "MiB")
	b.set("gc.cpu_ms_per_cell", sw.total.gcCPU*1e3/n, "ms")
	b.set("gc.cycles_per_cell", float64(sw.total.gcCycles)/n, "count")
	b.set("gc.pause_us_per_cell", float64(sw.pause)/1e3/n, "us")
}

// measure runs the workload's rounds. An untraced run spends the whole
// budget on the plain rounds. A traced run spends half on plain rounds
// (its CPU per cell is the baseline of the tracing overhead) and half on
// instrumented rounds under the CPU profiler, which give the per-layer
// metrics.
func (b *bench) measure(minRounds int, round func(i int, sw *stopwatch, sp *spans) int) {
	if !b.traced {
		sw := b.phase(b.budget, minRounds, false, func(i int, sw *stopwatch) int { return round(i, sw, nil) })
		b.report(sw)
		return
	}
	plain := b.phase(b.budget/2, minRounds, false, func(i int, sw *stopwatch) int { return round(i, sw, nil) })
	b.spans = newSpans()
	b.prof = newProfFold()
	traced := b.phase(b.budget/2, minRounds, true, func(i int, sw *stopwatch) int { return round(i, sw, b.spans) })
	b.report(traced)
	n := float64(traced.cells())
	base := plain.cpuMsPerCell()
	tr := traced.cpuMsPerCell()
	b.set("trace.cpu_ms_per_cell", tr, "ms")
	b.set("trace.overhead_cpu_ms_per_cell", tr-base, "ms")
	if n > 0 {
		total := 0.0
		for _, l := range profLayers {
			ms := float64(b.prof.self[l]) / 1e6 / n
			total += ms
			b.set("prof."+l+".self_ms_per_cell", ms, "ms")
		}
		if traced.total.cpu > 0 {
			b.set("prof.sum_over_cpu", total*n/(float64(traced.total.cpu)/1e6), "ratio")
		}
	}
	b.spans.report(b, traced)
}

func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// timeIt runs fn and returns how long it took.
func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
