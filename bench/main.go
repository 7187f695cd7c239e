// Command ompss-perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload (or all of them, each in a fresh
// process), checks the program's outputs, and prints every metric with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with -trace 1 they are the per-layer ones. Build and
// run it from the root of a checkout with bench/run.sh; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workload{
	{"heavy-cell", "the pinned pbpi-hyb versioning cell run serially with no store: per-task engine cost (sim, deps, mem, xfer, sched, GC)", runHeavyCell},
	{"mini-grid", "one claimant runs a cold grid of tiny cells into a fresh DirStore with a journal: per-cell build, hash, store-write and journal costs", runMiniGrid},
	{"warm-grid", "the mini-grid resumed from a populated store, then rendered and replayed: the store's read path with no simulation", runWarmGrid},
	{"fleet", "two claimants claim a cold grid from an in-process sweepd over loopback HTTP: the lease protocol and control plane", runFleet},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// DefaultSeed is the workload seed used when -seed is not given.
const DefaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", DefaultSeed, "workload seed (the heavy cell's Seed, the grids' BaseSeed)")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for stores and journals (created and removed)")
		steady  = flag.Int("steady", 0, "steadiness mode: run every selected workload this many times, alternating, each in a fresh process, and print medians and quartiles")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload is required (one of "+strings.Join(workloadNames(), ", ")+", or all)")
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s, all)\n", n, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
	}
	co := childOpts{seconds: *seconds, traced: *traced, workdir: *workdir}
	if *steady > 0 {
		os.Exit(runSteady(names, *seed, co, *steady))
	}
	if len(names) > 1 {
		os.Exit(runAll(names, *seed, co))
	}
	w, _ := lookupWorkload(names[0])
	// One P: on a 2-vCPU host, two let the simulator's coroutine
	// hand-offs and the GC hop between cores, which made round times
	// vary by a quarter within one process (see README, Method).
	runtime.GOMAXPROCS(1)
	b := &bench{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		workdir: fmt.Sprintf("%s/%s-%d", *workdir, w.name, os.Getpid()),
		metrics: map[string]metric{},
	}
	os.Exit(b.execute(w))
}

// execute runs one workload in this process and prints its result.
func (b *bench) execute(w workload) int {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	err := w.run(b)
	if rmErr := os.RemoveAll(b.workdir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", b.workdir, rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s attempted nothing\n", w.name)
		return 1
	}
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := b.metrics[d.Name]
		if !ok {
			m = metric{Value: 0, Unit: d.Unit} // the layer does no work on this workload
		}
		res.Metrics[d.Name] = m
		fmt.Printf("%-36s %16.6f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d\n", b.attempted, b.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childOpts are the flags a parent passes on to each workload process.
type childOpts struct {
	seconds float64
	traced  int
	workdir string
}

// child runs one workload in a fresh process and parses its result line.
func child(name string, seed int64, o childOpts) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.traced), "-workdir", o.workdir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %v", name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %v", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %v", name, runErr)
	}
	return res, nil
}

// runAll runs each workload once in its own process.
func runAll(names []string, seed int64, o childOpts) int {
	code := 0
	for _, n := range names {
		res, err := child(n, seed, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
		fmt.Printf("== %s (attempted %d, failed %d, correct %v)\n", n, res.Attempted, res.Failed, res.Correct)
		for _, k := range sortedKeys(res.Metrics) {
			fmt.Printf("%-36s %16.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	return code
}
