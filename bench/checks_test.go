package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xfer"
	"repro/ompss"
)

// goodTrace is a hand-built three-task run that satisfies every
// property: task 1 precedes 2 and 3, each ran a version its device
// supports, and the transfers sum to the result's totals.
func goodTrace() ([]trace.TaskRecord, []xfer.Record, ompss.Result, versionDevices) {
	tasks := []trace.TaskRecord{
		{TaskID: 1, Type: "t", Version: "t_smp", DeviceKind: machine.KindSMP, Start: 0, End: 10},
		{TaskID: 2, Type: "t", Version: "t_gpu", DeviceKind: machine.KindCUDA, Start: 10, End: 20, Preds: []int64{1}},
		{TaskID: 3, Type: "t", Version: "t_smp", DeviceKind: machine.KindSMP, Start: 12, End: 30, Preds: []int64{1}},
	}
	transfers := []xfer.Record{
		{From: 0, To: 1, Bytes: 100, Category: xfer.CatInput},
		{From: 1, To: 0, Bytes: 40, Category: xfer.CatOutput},
		{From: 1, To: 2, Bytes: 7, Category: xfer.CatDevice},
		{From: 0, To: 1, Bytes: 50, Category: xfer.CatInput},
	}
	res := ompss.Result{Tasks: 3, InputTxBytes: 150, OutputTxBytes: 40, DeviceTxBytes: 7,
		VersionCounts: map[string]map[string]int{"t": {"t_smp": 2, "t_gpu": 1}}}
	vd := versionDevices{"t": {
		"t_smp": {machine.KindSMP},
		"t_gpu": {machine.KindCUDA},
	}}
	return tasks, transfers, res, vd
}

func TestCheckersAcceptAGoodRun(t *testing.T) {
	tasks, transfers, res, vd := goodTrace()
	for name, err := range map[string]error{
		"order":      checkDependenceOrder(tasks),
		"once":       checkExactlyOnce(tasks, 3),
		"capability": checkCapability(tasks, vd),
		"transfers":  checkTransferTotals(res, transfers),
		"count":      checkTaskCount(res.Tasks, 3),
		"versions":   checkVersionSum(res),
		"learning":   checkLearningMinimum(map[string]map[string]int{"t": {"a": 3, "b": 5}}, map[string][]string{"t": {"a", "b"}}, 3),
		"same":       checkSameResult(res, res),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckDependenceOrderCatchesEarlyStart(t *testing.T) {
	tasks, _, _, _ := goodTrace()
	tasks[1].Start = 9 // task 1 ends at 10
	if err := checkDependenceOrder(tasks); err == nil {
		t.Fatal("a task starting before its predecessor ended passed")
	}
	tasks, _, _, _ = goodTrace()
	tasks[2].Preds = []int64{99}
	if err := checkDependenceOrder(tasks); err == nil {
		t.Fatal("a task depending on a task that never ran passed")
	}
}

func TestCheckExactlyOnceCatchesDuplicateAndMissing(t *testing.T) {
	tasks, _, _, _ := goodTrace()
	if err := checkExactlyOnce(append(tasks, tasks[0]), 3); err == nil {
		t.Fatal("a task executed twice passed")
	}
	if err := checkExactlyOnce(tasks[:2], 3); err == nil {
		t.Fatal("a task that never executed passed")
	}
}

func TestCheckCapabilityCatchesWrongDevice(t *testing.T) {
	tasks, _, _, vd := goodTrace()
	tasks[1].DeviceKind = machine.KindSMP // t_gpu is CUDA-only
	if err := checkCapability(tasks, vd); err == nil {
		t.Fatal("a CUDA-only version on an SMP worker passed")
	}
	tasks, _, _, vd = goodTrace()
	tasks[0].Version = "t_fpga"
	if err := checkCapability(tasks, vd); err == nil {
		t.Fatal("an undeclared version passed")
	}
}

func TestCheckTransferTotalsCatchesMismatch(t *testing.T) {
	_, transfers, res, _ := goodTrace()
	res.DeviceTxBytes++
	if err := checkTransferTotals(res, transfers); err == nil {
		t.Fatal("device bytes off by one passed")
	}
	_, transfers, res, _ = goodTrace()
	if err := checkTransferTotals(res, transfers[:3]); err == nil {
		t.Fatal("a missing input transfer passed")
	}
}

func TestCheckTaskCount(t *testing.T) {
	if got := pbpiTaskCount(25, 8, 32); got != 6625 {
		t.Fatalf("pbpi task count %d, want 25 x 265 = 6625", got)
	}
	if err := checkTaskCount(6624, 6625); err == nil {
		t.Fatal("a task count one short passed")
	}
	_, _, res, _ := goodTrace()
	res.Tasks = 4
	if err := checkVersionSum(res); err == nil {
		t.Fatal("version counts not summing to the task count passed")
	}
}

func TestCheckLearningMinimumCatchesShortLearningPhase(t *testing.T) {
	runnable := map[string][]string{"two": {"a", "b"}, "one": {"c"}}
	counts := map[string]map[string]int{"two": {"a": 10, "b": 2}, "one": {"c": 1}}
	if err := checkLearningMinimum(counts, runnable, 3); err == nil {
		t.Fatal("a version run twice with lambda 3 passed")
	}
	counts["two"]["b"] = 3
	if err := checkLearningMinimum(counts, runnable, 3); err != nil {
		t.Fatalf("single-version types need no learning phase: %v", err)
	}
	delete(counts["two"], "b")
	if err := checkLearningMinimum(counts, runnable, 3); err == nil {
		t.Fatal("a version that never ran passed")
	}
}

func TestCheckJournalOnceCatchesDoubleDone(t *testing.T) {
	recs := []journal.Record{
		{Type: journal.TypeDone, Owner: "a", Index: 0, Hash: "h0", T: 1},
		{Type: journal.TypeDone, Owner: "a", Index: 1, Hash: "h1", T: 2},
	}
	if err := checkJournalOnce(journal.Replay(recs), []string{"h0", "h1"}); err != nil {
		t.Fatalf("a clean journal failed: %v", err)
	}
	double := append(recs, journal.Record{Type: journal.TypeDone, Owner: "b", Index: 1, Hash: "h1", T: 3})
	if err := checkJournalOnce(journal.Replay(double), []string{"h0", "h1"}); err == nil {
		t.Fatal("a cell done by two claimants passed")
	}
	if err := checkJournalOnce(journal.Replay(recs[:1]), []string{"h0", "h1"}); err == nil {
		t.Fatal("a cell never done passed")
	}
}

func TestCheckSameResultCatchesDrift(t *testing.T) {
	_, _, res, _ := goodTrace()
	other := res
	other.Elapsed = res.Elapsed + sim.Duration(1)
	if err := checkSameResult(other, res); err == nil {
		t.Fatal("a different makespan passed")
	}
	other = res
	other.VersionCounts = map[string]map[string]int{"t": {"t_smp": 1, "t_gpu": 2}}
	if err := checkSameResult(other, res); err == nil {
		t.Fatal("different version counts passed")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestClassifyFoldsStacksByLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/deps.(*Tracker).Add", "repro/internal/rt.(*Runtime).submit"}, "deps"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/deps.(*Tracker).collect", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"repro/internal/sched/versioning.(*Versioning).TaskReady"}, "sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "repro/internal/exp.(*DirStore).StoreCell"}, "exp"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestProfFoldReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	f := newProfFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range f.self {
		total += ns
	}
	if total <= 0 || total > int64(time.Second) {
		t.Fatalf("folded %v of CPU from a 200ms spin (x=%d)", time.Duration(total), x)
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json, at the root
// of the repository, in step with the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if strings.Join(bj.Paths, ",") != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}
