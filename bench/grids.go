package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/sweepd"
)

// The grids cross all six schedulers, every registered application, a
// single node and a two-node cluster, and two chaos specs: none, and a
// GPU dropout with recovery. Cells are tiny and jittered, so per-cell
// fixed costs dominate and the seed reaches every run.
const (
	gridReplicas  = 4 // mini-grid and warm-grid: 1056 runs
	fleetReplicas = 2 // fleet: 528 runs, so a round stays near two seconds
	gridChaos     = "gpu0:drop@40%+recover@70%"
	gridCluster   = "cluster:1x2+1g"
	warmStores    = 3 // cold passes in warm-grid's set-up
	fleetPoll     = 10 * time.Millisecond
	gridMinRounds = 3
)

var gridSchedulers = []string{"affinity", "bf", "dep", "random", "versioning", "wf"}

func benchGrid(seed int64, replicas int) exp.Grid {
	return exp.Grid{
		Apps:       exp.AppNames(),
		Schedulers: gridSchedulers,
		Machines:   []exp.MachineSpec{exp.MachineNode, gridCluster},
		SMPWorkers: []int{4},
		GPUs:       []int{2},
		Chaos:      []string{"", gridChaos},
		Noise:      []float64{0.05},
		Size:       exp.SizeTiny,
		Replicas:   replicas,
		BaseSeed:   seed,
	}
}

// expandGrid is the set-up's expansion and hashing of the grid.
func expandGrid(g exp.Grid, sp *spans) []string {
	specs := g.Runs()
	hashes := make([]string, len(specs))
	for i, s := range specs {
		t := time.Now()
		hashes[i] = s.Hash()
		if sp != nil {
			sp.since("exp.hash", t)
		}
	}
	return hashes
}

// renderOutputs renders a campaign's CSV and JSON outputs.
func renderOutputs(res *exp.SweepResult, sp *spans) ([]byte, error) {
	t := time.Now()
	var buf bytes.Buffer
	if err := exp.WriteCSV(&buf, res); err != nil {
		return nil, err
	}
	buf.WriteString("\n--\n")
	if err := exp.WriteJSON(&buf, res); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.since("output.render", t)
	}
	return buf.Bytes(), nil
}

// referenceOutput renders a store-less campaign of the grid, the
// byte-for-byte reference every round's output must match.
func referenceOutput(g exp.Grid, parallel int) ([]byte, error) {
	res, _, err := (&exp.Campaign{Grid: g, Parallel: parallel}).Execute()
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	return renderOutputs(res, nil)
}

// checkColdRound checks one cold campaign over a store: every run
// simulated, version counts summing to task counts, output identical
// to the reference, and a journal showing each cell done exactly once.
func checkColdRound(b *bench, res *exp.SweepResult, simulated int, out, ref []byte, store exp.CellStore, hashes []string) {
	n := len(hashes)
	if !b.check(simulated == n, "simulated %d of %d runs", simulated, n) {
		return
	}
	for _, rr := range res.Runs {
		if err := checkVersionSum(rr.Result); err != nil {
			b.fail(1, "%s: %v", rr.Spec, err)
		}
	}
	if !bytes.Equal(out, ref) {
		b.fail(n, "CSV/JSON output differs from the store-less reference campaign")
		return
	}
	recs, stats, err := store.PollJournal()
	if err != nil {
		b.fail(n, "reading the journal: %v", err)
		return
	}
	if stats.Skipped() != 0 {
		b.fail(n, "journal has %d unreadable lines", stats.Skipped())
		return
	}
	if err := checkJournalOnce(journal.Replay(recs), hashes); err != nil {
		b.fail(n, "journal audit: %v", err)
	}
}

// coldPass runs the grid once, cold, into the store with a journal, as
// one claimant; sw (when set) times the campaign.
func coldPass(g exp.Grid, ds *exp.DirStore, sw *stopwatch, sp *spans) (*exp.SweepResult, exp.ClaimStats, error) {
	store := wrapStore(ds, sp)
	rec := exp.NewJournalRecorder(store, "claimant")
	c := &exp.Campaign{Grid: g, Store: store, Parallel: 1, Observer: withObserver(rec, sp)}
	if sw != nil {
		sw.start()
	}
	res, st, err := c.Execute()
	if sw != nil {
		sw.stop()
	}
	if err == nil {
		err = rec.Err()
	}
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	return res, st, err
}

func runMiniGrid(b *bench) error {
	g := benchGrid(b.seed, gridReplicas)
	ref, err := referenceOutput(g, 2)
	if err != nil {
		return err
	}
	b.measure(gridMinRounds, func(i int, sw *stopwatch, sp *spans) int {
		dir := filepath.Join(b.workdir, fmt.Sprintf("mini-%d", i))
		var hashes []string
		var ds *exp.DirStore
		b.setups = append(b.setups, timeIt(func() {
			hashes = expandGrid(g, sp)
			ds, err = exp.OpenDirStore(dir)
		}))
		n := len(hashes)
		defer os.RemoveAll(dir)
		if err != nil {
			b.fail(n, "opening the store: %v", err)
			return n
		}
		defer ds.Close()
		res, st, err := coldPass(g, ds, sw, sp)
		if err != nil {
			b.fail(n, "cold campaign: %v", err)
			return n
		}
		out, err := renderOutputs(res, sp)
		if err != nil {
			b.fail(n, "rendering: %v", err)
			return n
		}
		checkColdRound(b, res, st.Simulated, out, ref, ds, hashes)
		return n
	})
	if b.traced {
		b.set("apps.build_us", buildProbe(b, g.Runs())/1e3, "us")
	}
	return nil
}

func runWarmGrid(b *bench) error {
	g := benchGrid(b.seed, gridReplicas)
	hashes := expandGrid(g, nil)
	n := len(hashes)
	dirs := make([]string, warmStores)
	var cold []byte
	for k := range dirs {
		dirs[k] = filepath.Join(b.workdir, fmt.Sprintf("warm-%d", k))
		var res *exp.SweepResult
		var st exp.ClaimStats
		var ds *exp.DirStore
		var err error
		b.setups = append(b.setups, timeIt(func() {
			if ds, err = exp.OpenDirStore(dirs[k]); err == nil {
				res, st, err = coldPass(g, ds, nil, nil)
			}
		}))
		if err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
		out, err := renderOutputs(res, nil)
		if err != nil {
			return err
		}
		if cold == nil {
			cold = out
		}
		b.attempted += int64(n)
		checkColdRound(b, res, st.Simulated, out, cold, ds, hashes)
		ds.Close()
	}
	replays := make([][]byte, warmStores)
	b.measure(gridMinRounds, func(i int, sw *stopwatch, sp *spans) int {
		k := i % warmStores
		sw.start()
		w, err := warmRound(g, dirs[k], sp)
		sw.stop()
		if err != nil {
			b.fail(n, "warm round: %v", err)
			return n
		}
		if !b.check(w.st.Simulated == 0 && w.st.Hits == n, "warm round simulated %d and hit %d of %d runs", w.st.Simulated, w.st.Hits, n) {
			return n
		}
		if !bytes.Equal(w.out, cold) {
			b.fail(n, "warm output differs from the cold pass that populated the store")
			return n
		}
		if err := checkJournalOnce(w.timeline, hashes); err != nil {
			b.fail(n, "replay audit: %v", err)
			return n
		}
		if replays[k] == nil {
			replays[k] = w.report
		} else if !bytes.Equal(w.report, replays[k]) {
			b.fail(n, "the replay report of an unchanged journal changed between rounds")
		}
		return n
	})
	return nil
}

// warmResult is what one warm round produced.
type warmResult struct {
	st       exp.ClaimStats
	out      []byte // CSV + JSON
	report   []byte // the forensics report
	timeline *journal.Timeline
}

// warmRound resumes the grid through a fresh handle on a populated
// store, renders its outputs and the journal's forensics report.
func warmRound(g exp.Grid, dir string, sp *spans) (warmResult, error) {
	var w warmResult
	ds, err := exp.OpenDirStore(dir)
	if err != nil {
		return w, err
	}
	defer ds.Close()
	store := wrapStore(ds, sp)
	rec := exp.NewJournalRecorder(store, "claimant")
	defer rec.Close()
	res, st, err := (&exp.Campaign{Grid: g, Store: store, Parallel: 1, Observer: withObserver(rec, sp)}).Execute()
	if err != nil {
		return w, err
	}
	w.st = st
	if w.out, err = renderOutputs(res, sp); err != nil {
		return w, err
	}
	t := time.Now()
	recs, stats, err := store.PollJournal()
	if err != nil {
		return w, err
	}
	rep := exp.NewReplayReport(ds.Description(), recs, stats)
	var report bytes.Buffer
	if err := rep.WriteText(&report); err != nil {
		return w, err
	}
	if sp != nil {
		sp.since("forensics.replay", t)
	}
	w.report, w.timeline = report.Bytes(), rep.Timeline
	return w, nil
}

// fleetRig is one fleet round's coordinator: a DirStore served by an
// in-process sweepd.Server on a loopback listener.
type fleetRig struct {
	dir    string
	ds     *exp.DirStore
	srv    *sweepd.Server
	hs     *http.Server
	served chan struct{}
	url    string
}

func startFleetRig(dir string, sp *spans) (*fleetRig, error) {
	ds, err := exp.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ds.Close()
		return nil, err
	}
	srv := sweepd.NewServer(ds)
	var h http.Handler = srv
	if sp != nil {
		h = timedHandler{srv, sp}
	}
	rig := &fleetRig{dir: dir, ds: ds, srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(rig.served)
		if err := rig.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: sweepd server: %v\n", err)
		}
	}()
	return rig, nil
}

func (r *fleetRig) stop() {
	r.hs.Close()
	<-r.served
	r.srv.Close()
	r.ds.Close()
	os.RemoveAll(r.dir)
}

const fleetClaimants = 2

func runFleet(b *bench) error {
	g := benchGrid(b.seed, fleetReplicas)
	ref, err := referenceOutput(g, 1)
	if err != nil {
		return err
	}
	b.claimants = fleetClaimants
	b.measure(gridMinRounds, func(i int, sw *stopwatch, sp *spans) int {
		var rig *fleetRig
		var hashes []string
		var err error
		b.setups = append(b.setups, timeIt(func() {
			hashes = expandGrid(g, sp)
			rig, err = startFleetRig(filepath.Join(b.workdir, fmt.Sprintf("fleet-%d", i)), sp)
		}))
		n := len(hashes)
		if err != nil {
			b.fail(n, "starting the coordinator: %v", err)
			return n
		}
		defer rig.stop()
		type outcome struct {
			res *exp.SweepResult
			st  exp.ClaimStats
			err error
		}
		outs := make([]outcome, fleetClaimants)
		var wg sync.WaitGroup
		sw.start()
		for c := range outs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				outs[c].res, outs[c].st, outs[c].err = claimant(g, rig.url, fmt.Sprintf("claimant-%d", c), sp)
			}(c)
		}
		wg.Wait()
		sw.stop()
		simulated := 0
		for c, o := range outs {
			if o.err != nil {
				b.fail(n, "claimant %d: %v", c, o.err)
				return n
			}
			simulated += o.st.Simulated
		}
		for c, o := range outs {
			out, err := renderOutputs(o.res, sp)
			if err != nil || !bytes.Equal(out, ref) {
				b.fail(n, "claimant %d's merged output differs from a one-claimant run (%v)", c, err)
				return n
			}
		}
		if !b.check(simulated == n, "claimants simulated %d runs in all, the grid has %d", simulated, n) {
			return n
		}
		recs, _, err := rig.ds.PollJournal()
		if err != nil {
			b.fail(n, "reading the journal: %v", err)
			return n
		}
		if err := checkJournalOnce(journal.Replay(recs), hashes); err != nil {
			b.fail(n, "journal audit: %v", err)
			return n
		}
		if leases, err := rig.ds.LeaseStatuses(); err != nil || len(leases) != 0 {
			b.fail(n, "%d lease(s) left behind (%v)", len(leases), err)
		}
		return n
	})
	if b.traced {
		b.set("apps.build_us", buildProbe(b, g.Runs())/1e3, "us")
	}
	return nil
}

// claimant runs one fleet member: a claim-mode campaign over its own
// HTTP store, journaling under its owner tag.
func claimant(g exp.Grid, url, owner string, sp *spans) (*exp.SweepResult, exp.ClaimStats, error) {
	hs, err := sweepd.Dial(url)
	if err != nil {
		return nil, exp.ClaimStats{}, err
	}
	defer hs.Close()
	store := wrapStore(hs, sp)
	rec := exp.NewJournalRecorder(store, owner)
	c := &exp.Campaign{
		Grid: g, Store: store, Parallel: 1,
		Claim:    &exp.ClaimOptions{Owner: owner, Poll: fleetPoll},
		Observer: withObserver(rec, sp),
	}
	res, st, err := c.Execute()
	if err == nil {
		err = rec.Err()
	}
	return res, st, err
}
