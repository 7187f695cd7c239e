package main

import (
	"time"

	"repro/internal/deps"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verprof"
	"repro/internal/xfer"
	"repro/ompss"
)

// probeTime is how long each engine probe repeats its pass.
const probeTime = 300 * time.Millisecond

// probe repeats pass (which performs ops operations) until probeTime is
// spent, at least three times, and returns the median ns per operation.
func probe(ops int, pass func()) float64 {
	var v []float64
	start := time.Now()
	for len(v) < 3 || time.Since(start) < probeTime {
		d := timeIt(pass)
		v = append(v, float64(d)/float64(ops))
	}
	return median(v)
}

// nopRecorder discards transfer records.
type nopRecorder struct{}

func (nopRecorder) RecordTransfer(xfer.Record) {}

// runEngineProbes times each engine layer's public entry points on
// inputs taken from the heavy cell: its submitted task stream, its
// trace, its machine and its transfers.
func runEngineProbes(b *bench, spec exp.RunSpec, r *ompss.Runtime, stream *taskStream) {
	tasks := stream.bySubmission()
	tr := r.Tracer()
	mach := r.Machine()

	// sim: one After plus its dispatch by Run, with 64 events pending.
	const events = 200_000
	b.set("sim.event_ns", probe(events, func() {
		e := sim.NewEngine()
		n := 0
		var seed uint32 = 12345
		var fire func()
		fire = func() {
			n++
			if n <= events-64 {
				seed = seed*1664525 + 1013904223
				e.After(time.Duration(1+seed>>24), fire)
			}
		}
		for i := 0; i < 64; i++ {
			e.After(time.Duration(i+1), fire)
		}
		e.Run()
	}), "ns")

	// sim: a coroutine sleeping, i.e. Park, the wake-up event and Unpark.
	const sleeps = 50_000
	b.set("sim.park_unpark_ns", probe(sleeps, func() {
		e := sim.NewEngine()
		e.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	}), "ns")

	// deps: Tracker.Add over the cell's tasks in submission order.
	b.set("deps.add_ns", probe(len(tasks), func() {
		t := deps.NewTracker()
		for _, task := range tasks {
			t.Add(task, task.Accesses)
		}
	}), "ns")

	// mem: Acquire and Release of every access of every task, on the
	// space of the worker that ran it, with transfers driven by the
	// engine.
	spaceOf := map[int64]machine.SpaceID{}
	workers := r.Workers()
	for _, rec := range tr.Tasks {
		if rec.Worker >= 0 && rec.Worker < len(workers) {
			spaceOf[rec.TaskID] = workers[rec.Worker].Space()
		}
	}
	src := r.Directory()
	accesses := 0
	for _, t := range tasks {
		accesses += len(t.Accesses)
	}
	b.set("mem.acquire_release_ns", probe(accesses, func() {
		e := sim.NewEngine()
		d := mem.NewDirectory(e, mach, xfer.NewFabric(e, mach, nopRecorder{}))
		objs := make([]*mem.Object, src.NumObjects())
		for i := range objs {
			o := src.Object(mem.ObjectID(i))
			objs[i] = d.Register(o.Name, o.Size)
		}
		for _, t := range tasks {
			sp := spaceOf[t.ID]
			for _, a := range t.Accesses {
				d.Acquire(objs[a.Obj.ID], sp, a.Mode, nil)
			}
			e.Run()
			for _, a := range t.Accesses {
				if a.Mode.Writes() {
					d.CommitWrite(objs[a.Obj.ID], sp)
				}
				d.Release(objs[a.Obj.ID], sp)
			}
		}
	}), "ns")

	// xfer: the cell's transfers replayed on a fresh fabric.
	if len(tr.Transfers) > 0 {
		b.set("xfer.transfer_ns", probe(len(tr.Transfers), func() {
			e := sim.NewEngine()
			f := xfer.NewFabric(e, mach, nopRecorder{})
			for i, x := range tr.Transfers {
				f.Transfer(x.From, x.To, x.Bytes, x.Tag, nil)
				if i%64 == 63 {
					e.Run()
				}
			}
			e.Run()
		}), "ns")
	}

	// verprof: the versioning scheduler's profile lookup, estimate and
	// update per executed task.
	versions := map[string][]string{}
	for _, rec := range tr.Tasks {
		if _, ok := versions[rec.Type]; !ok {
			versions[rec.Type] = r.TaskType(rec.Type).VersionNames()
		}
	}
	b.set("verprof.lookup_ns", probe(len(tr.Tasks), func() {
		s := verprof.NewStore(0)
		for _, rec := range tr.Tasks {
			g := s.GroupFor(rec.Type, rec.DataSetSize, versions[rec.Type])
			g.Mean(rec.Version)
			g.Record(rec.Version, rec.ExecTime())
		}
	}), "ns")

	// trace: recording every task of the cell.
	b.set("trace.record_ns", probe(len(tr.Tasks), func() {
		t := trace.New()
		for _, rec := range tr.Tasks {
			t.RecordTask(rec)
		}
	}), "ns")

	b.set("apps.build_us", buildProbe(b, []exp.RunSpec{spec})/1e3, "us")
}

// buildProbe is the median ns per exp.Build over the given specs.
func buildProbe(b *bench, specs []exp.RunSpec) float64 {
	var runtimes []*ompss.Runtime // kept so the builds are not optimised away
	ns := probe(len(specs), func() {
		runtimes = runtimes[:0]
		for _, s := range specs {
			r, err := exp.Build(s)
			if err != nil {
				b.fail(1, "build probe: %v", err)
				return
			}
			runtimes = append(runtimes, r)
		}
	})
	return ns
}
