package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/rt"
	"repro/internal/sched"
)

// spans holds the traced phase's measurements at each layer boundary,
// in memory: per boundary a call count and the summed duration, plus
// the individual cell-run spans and counts the ratios need.
type spans struct {
	stat map[string]*spanStat // fixed key set, created up front

	loadHits   atomic.Int64
	nextEmpty  atomic.Int64
	tasks      atomic.Int64 // tasks finished under the timed scheduler
	mu         sync.Mutex
	started    map[startKey]time.Time
	runs       []time.Duration // CellStarted -> CellDone, per simulated cell
	runsInCell time.Duration   // their sum within the timed parts
	chaos      []chaosPair
}

type startKey struct {
	obs *timedObserver
	idx int
}

// chaosPair is a simulated cell's run time next to its chaos spec, for
// pairing chaos cells with their no-chaos twins.
type chaosPair struct {
	spec exp.RunSpec
	wall time.Duration
}

type spanStat struct {
	n  atomic.Int64
	ns atomic.Int64
}

var spanNames = []string{
	"exp.hash", "store.load", "store.store", "store.claim", "store.append",
	"store.snapshot", "store.poll_journal", "output.render", "forensics.replay",
	"sweepd.serve", "sched.ready", "sched.next", "sched.finished",
}

func newSpans() *spans {
	s := &spans{stat: map[string]*spanStat{}, started: map[startKey]time.Time{}}
	for _, n := range spanNames {
		s.stat[n] = &spanStat{}
	}
	return s
}

// since records a span that started at t.
func (s *spans) since(name string, t time.Time) {
	st := s.stat[name]
	st.n.Add(1)
	st.ns.Add(int64(time.Since(t)))
}

// mean is the average span duration in the given unit (0 if none).
func (s *spans) mean(name string, unit time.Duration) float64 {
	st := s.stat[name]
	if n := st.n.Load(); n > 0 {
		return float64(st.ns.Load()) / float64(n) / float64(unit)
	}
	return 0
}

func (s *spans) count(name string) float64 { return float64(s.stat[name].n.Load()) }

// report sets the span-derived layer metrics; cells are the traced
// phase's resolved cells.
func (s *spans) report(b *bench, sw *stopwatch) {
	n := float64(sw.cells())
	if n == 0 {
		return
	}
	b.set("exp.hash_us", s.mean("exp.hash", time.Microsecond), "us")
	b.set("store.load_us", s.mean("store.load", time.Microsecond), "us")
	b.set("store.loads_per_cell", s.count("store.load")/n, "count")
	if loads := s.count("store.load"); loads > 0 {
		b.set("store.load_hit_ratio", float64(s.loadHits.Load())/loads, "ratio")
	}
	b.set("store.store_us", s.mean("store.store", time.Microsecond), "us")
	b.set("store.claim_us", s.mean("store.claim", time.Microsecond), "us")
	b.set("store.claims_per_cell", s.count("store.claim")/n, "count")
	b.set("store.append_us", s.mean("store.append", time.Microsecond), "us")
	b.set("store.appends_per_cell", s.count("store.append")/n, "count")
	b.set("store.snapshot_ms", s.mean("store.snapshot", time.Millisecond), "ms")
	b.set("store.poll_journal_ms", s.mean("store.poll_journal", time.Millisecond), "ms")
	b.set("output.render_ms", s.mean("output.render", time.Millisecond), "ms")
	b.set("forensics.replay_ms", s.mean("forensics.replay", time.Millisecond), "ms")
	b.set("sweepd.serve_us", s.mean("sweepd.serve", time.Microsecond), "us")
	b.set("sweepd.requests_per_cell", s.count("sweepd.serve")/n, "count")
	b.set("sched.ready_ns", s.mean("sched.ready", time.Nanosecond), "ns")
	b.set("sched.next_ns", s.mean("sched.next", time.Nanosecond), "ns")
	b.set("sched.finished_ns", s.mean("sched.finished", time.Nanosecond), "ns")
	if tasks := s.tasks.Load(); tasks > 0 {
		next := s.count("sched.next")
		b.set("sched.next_calls_per_task", next/float64(tasks), "count")
		b.set("sched.next_useful_ratio", (next-float64(s.nextEmpty.Load()))/next, "ratio")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runs) > 0 {
		v := make([]float64, len(s.runs))
		for i, d := range s.runs {
			v[i] = float64(d) / 1e6
		}
		b.set("campaign.run_ms_p50", median(v), "ms")
		// Timed time outside cell runs, spread over the cells: planning,
		// hashing, store and journal work, scheduling of the pool. With
		// several claimants the runs overlap, so this is per claimant.
		claimants := float64(max(1, b.claimants))
		other := float64(sw.total.wall)*claimants - float64(s.runsInCell)
		b.set("campaign.other_ms_per_cell", other/1e6/n, "ms")
	}
	if extra, ok := chaosExtra(s.chaos); ok {
		b.set("chaos.extra_ms_per_cell", extra, "ms")
	}
}

// chaosExtra is the mean, over chaos cells with a no-chaos twin, of the
// chaos cell's run time minus its twin's, in ms.
func chaosExtra(pairs []chaosPair) (float64, bool) {
	plain := map[exp.RunSpec][]time.Duration{}
	for _, p := range pairs {
		if p.spec.Chaos == "" {
			plain[p.spec] = append(plain[p.spec], p.wall)
		}
	}
	var sum time.Duration
	n := 0
	for _, p := range pairs {
		if p.spec.Chaos == "" {
			continue
		}
		twin := p.spec
		twin.Chaos = ""
		if w, ok := plain[twin]; ok {
			sum += p.wall - medianDuration(w)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / 1e6 / float64(n), true
}

// timedStore times every CellStore call the campaign makes.
type timedStore struct {
	exp.CellStore
	sp *spans
}

func (s timedStore) LoadCell(spec exp.RunSpec, hash string) (exp.RunResult, bool) {
	t := time.Now()
	rr, ok := s.CellStore.LoadCell(spec, hash)
	s.sp.since("store.load", t)
	if ok {
		s.sp.loadHits.Add(1)
	}
	return rr, ok
}

func (s timedStore) StoreCell(rr exp.RunResult) error {
	defer s.sp.since("store.store", time.Now())
	return s.CellStore.StoreCell(rr)
}

func (s timedStore) Claim(hash, owner string, ttl time.Duration) (exp.StoreLease, bool, error) {
	defer s.sp.since("store.claim", time.Now())
	return s.CellStore.Claim(hash, owner, ttl)
}

func (s timedStore) AppendJournal(owner string, rec journal.Record) error {
	defer s.sp.since("store.append", time.Now())
	return s.CellStore.AppendJournal(owner, rec)
}

func (s timedStore) Snapshot() (exp.StoreSnapshot, error) {
	defer s.sp.since("store.snapshot", time.Now())
	return s.CellStore.Snapshot()
}

func (s timedStore) PollJournal() ([]journal.Record, journal.ReadStats, error) {
	defer s.sp.since("store.poll_journal", time.Now())
	return s.CellStore.PollJournal()
}

// wrapStore returns the store itself when untraced.
func wrapStore(s exp.CellStore, sp *spans) exp.CellStore {
	if sp == nil {
		return s
	}
	return timedStore{s, sp}
}

// timedObserver turns CellStarted/CellDone into cell-run spans.
type timedObserver struct{ sp *spans }

func (o *timedObserver) OnEvent(ev exp.Event) {
	switch ev := ev.(type) {
	case exp.CellStarted:
		o.sp.mu.Lock()
		o.sp.started[startKey{o, ev.Index}] = time.Now()
		o.sp.mu.Unlock()
	case exp.CellDone:
		now := time.Now()
		o.sp.mu.Lock()
		k := startKey{o, ev.Index}
		if t, ok := o.sp.started[k]; ok {
			d := now.Sub(t)
			o.sp.runs = append(o.sp.runs, d)
			o.sp.runsInCell += d
			o.sp.chaos = append(o.sp.chaos, chaosPair{ev.Result.Spec, ev.Result.Wall})
			delete(o.sp.started, k)
		}
		o.sp.mu.Unlock()
	}
}

// withObserver composes the campaign's own observer with a timing one
// when traced.
func withObserver(o exp.Observer, sp *spans) exp.Observer {
	if sp == nil {
		return o
	}
	return exp.MultiObserver(o, &timedObserver{sp})
}

// timedHandler times every request the sweepd server serves.
type timedHandler struct {
	h  http.Handler
	sp *spans
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer h.sp.since("sweepd.serve", time.Now())
	h.h.ServeHTTP(w, r)
}

// timedSchedName is the registry name of the versioning policy wrapped
// in timedSched; the heavy cell's traced rounds run under it.
const timedSchedName = "versioning-timed"

// activeSpans is where timedSched instances record, and captureNext
// the task stream the next instance fills; the heavy cell sets both
// before its traced rounds (the registry factory takes no arguments).
var (
	activeSpans atomic.Pointer[spans]
	captureNext atomic.Pointer[taskStream]
)

func init() {
	sched.Register(timedSchedName, func() rt.Scheduler {
		inner, err := sched.New("versioning")
		if err != nil {
			panic(err) // the versioning package registers itself at init
		}
		return &timedSched{inner: inner, sp: activeSpans.Load(), stream: captureNext.Swap(nil)}
	})
}

// timedSched times each call into the wrapped policy.
type timedSched struct {
	inner rt.Scheduler
	sp    *spans
	// stream collects the tasks in the order they became ready, with
	// the worker that ran them, for the engine probes.
	stream *taskStream
}

func (s *timedSched) Name() string       { return s.inner.Name() }
func (s *timedSched) Init(r *rt.Runtime) { s.inner.Init(r) }

func (s *timedSched) TaskReady(t *rt.Task) {
	if s.stream != nil {
		s.stream.ready(t)
	}
	start := time.Now()
	s.inner.TaskReady(t)
	s.sp.since("sched.ready", start)
}

func (s *timedSched) NextTask(w *rt.Worker) rt.Assignment {
	start := time.Now()
	a := s.inner.NextTask(w)
	s.sp.since("sched.next", start)
	if a.Empty() {
		s.sp.nextEmpty.Add(1)
	}
	return a
}

func (s *timedSched) TaskFinished(w *rt.Worker, t *rt.Task, v *rt.Version, exec time.Duration) {
	start := time.Now()
	s.inner.TaskFinished(w, t, v, exec)
	s.sp.since("sched.finished", start)
	s.sp.tasks.Add(1)
}

// taskStream is the heavy cell's task sequence as the runtime handed it
// to the scheduler: the access lists the dependence tracker saw, in
// submission order.
type taskStream struct {
	tasks []*rt.Task
}

func (ts *taskStream) ready(t *rt.Task) { ts.tasks = append(ts.tasks, t) }

func (ts *taskStream) bySubmission() []*rt.Task {
	out := append([]*rt.Task(nil), ts.tasks...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
