package main

import (
	"fmt"
	"time"

	"repro/bench/clock"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/ompss"
)

// The pinned heavy cell: pbpi-hyb at quick size under the versioning
// scheduler on 2 SMP + 2 GPU workers. Its PBPI configuration (quick
// size) is 25 generations of 8 segments with 32 loop-2 chunks each.
const (
	heavyGenerations = 25
	heavySegments    = 8
	heavyLoop2Chunks = 32
	heavyLambda      = 3 // the versioning scheduler's default learning threshold
	heavyCellsRound  = 16
)

func heavySpec(seed int64) exp.RunSpec {
	return exp.RunSpec{
		App: "pbpi-hyb", Size: exp.SizeQuick, Scheduler: "versioning",
		SMPWorkers: 2, GPUs: 2, NoiseSigma: 0.05, Seed: seed,
	}
}

// mainStart is when main began, after every package initialised.
var mainStart = time.Now()

func runHeavyCell(b *bench) error {
	spec := heavySpec(b.seed)
	initDur := mainStart.Sub(clock.Start)
	ref, rep, err := heavyReplay(b, spec)
	if err != nil {
		return err
	}
	if !b.traced {
		rep = nil // only the probes need the replay's runtime; do not keep its heap live
	}

	var stream *taskStream
	results := make([]exp.RunResult, heavyCellsRound)
	errs := make([]error, heavyCellsRound)
	b.measure(3, func(_ int, sw *stopwatch, sp *spans) int {
		s := spec
		if sp != nil {
			s.Scheduler = timedSchedName
			activeSpans.Store(sp)
			if stream == nil {
				stream = &taskStream{}
				captureNext.Store(stream)
			}
		}
		// The set-up, repeated before every round so its median spans
		// the run: package initialisation plus one untimed warm-up cell.
		var warm exp.RunResult
		d := timeIt(func() { warm, err = exp.Run(spec) })
		b.setups = append(b.setups, initDur+d)
		if err == nil {
			err = checkSameResult(warm.Result, ref)
		}
		if err != nil {
			b.fail(1, "warm-up cell: %v", err)
		}
		sw.start()
		for c := range results {
			results[c], errs[c] = exp.Run(s)
		}
		sw.stop()
		for c, rr := range results {
			if errs[c] != nil {
				b.fail(1, "heavy cell: %v", errs[c])
				continue
			}
			if err := checkSameResult(rr.Result, ref); err != nil {
				b.fail(1, "heavy cell does not reproduce the replay: %v", err)
			}
		}
		return len(results)
	})
	if b.traced {
		if stream == nil || len(stream.tasks) != ref.Tasks {
			return fmt.Errorf("the traced rounds captured no task stream")
		}
		runEngineProbes(b, spec, rep, stream)
	}
	return nil
}

// heavyReplay runs the pinned cell once outside the timed phase with its
// runtime kept, checks the method's properties on its trace, and returns
// the result every timed cell must reproduce.
func heavyReplay(b *bench, spec exp.RunSpec) (ompss.Result, *ompss.Runtime, error) {
	r, err := exp.Build(spec)
	if err != nil {
		return ompss.Result{}, nil, fmt.Errorf("replay: %w", err)
	}
	res := r.Execute()
	b.attempted++
	tr := r.Tracer()
	want := pbpiTaskCount(heavyGenerations, heavySegments, heavyLoop2Chunks)

	vd := versionDevices{}
	runnable := map[string][]string{}
	kinds := map[machine.DeviceKind]bool{}
	for _, w := range r.Workers() {
		kinds[w.Kind()] = true
	}
	for _, t := range tr.Tasks {
		if _, ok := vd[t.Type]; ok {
			continue
		}
		tt := r.TaskType(t.Type)
		if tt == nil {
			return res, r, fmt.Errorf("replay: trace names undeclared task type %q", t.Type)
		}
		vd[t.Type] = map[string][]machine.DeviceKind{}
		for _, v := range tt.Versions {
			vd[t.Type][v.Name] = v.Devices
			for _, k := range v.Devices {
				if kinds[k] {
					runnable[t.Type] = append(runnable[t.Type], v.Name)
					break
				}
			}
		}
	}
	for _, c := range []struct {
		what string
		err  error
	}{
		{"task count", checkTaskCount(res.Tasks, want)},
		{"exactly-once", checkExactlyOnce(tr.Tasks, want)},
		{"dependence order", checkDependenceOrder(tr.Tasks)},
		{"device capability", checkCapability(tr.Tasks, vd)},
		{"transfer totals", checkTransferTotals(res, tr.Transfers)},
		{"learning phase", checkLearningMinimum(res.VersionCounts, runnable, heavyLambda)},
		{"version counts", checkVersionSum(res)},
	} {
		if c.err != nil {
			b.fail(1, "heavy cell replay, %s: %v", c.what, c.err)
			break
		}
	}
	return res, r, nil
}
