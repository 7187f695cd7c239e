package main

import (
	"fmt"
	"sort"

	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/xfer"
	"repro/ompss"
)

// The output checkers test properties of the versioning method and of
// the campaign protocol on a run's outputs; none compares against a
// stored copy of earlier output. Each returns nil or the first
// violation it finds.

// pbpiTaskCount is the PBPI task count computed from its configuration:
// every generation submits one loop-1 task per segment, Loop2Chunks
// loop-2 tasks per segment and one loop-3 task.
func pbpiTaskCount(generations, segments, loop2Chunks int) int {
	return generations * (segments + segments*loop2Chunks + 1)
}

// checkTaskCount compares a run's task count with the expected one.
func checkTaskCount(got, want int) error {
	if got != want {
		return fmt.Errorf("task count %d, want %d", got, want)
	}
	return nil
}

// checkExactlyOnce verifies every task ID in [1, want] executed exactly
// once and nothing else did.
func checkExactlyOnce(tasks []trace.TaskRecord, want int) error {
	seen := make(map[int64]int, len(tasks))
	for _, t := range tasks {
		seen[t.TaskID]++
		if seen[t.TaskID] > 1 {
			return fmt.Errorf("task %d executed %d times", t.TaskID, seen[t.TaskID])
		}
	}
	if len(seen) != want {
		return fmt.Errorf("%d distinct tasks executed, want %d", len(seen), want)
	}
	return nil
}

// checkDependenceOrder verifies no task started before each of its
// predecessors ended.
func checkDependenceOrder(tasks []trace.TaskRecord) error {
	end := make(map[int64]trace.TaskRecord, len(tasks))
	for _, t := range tasks {
		end[t.TaskID] = t
	}
	for _, t := range tasks {
		for _, p := range t.Preds {
			pr, ok := end[p]
			if !ok {
				return fmt.Errorf("task %d depends on task %d, which never executed", t.TaskID, p)
			}
			if t.Start < pr.End {
				return fmt.Errorf("task %d started at %v before its predecessor %d ended at %v", t.TaskID, t.Start, p, pr.End)
			}
		}
	}
	return nil
}

// versionDevices maps task type -> version name -> the device kinds the
// version can run on (from the runtime's task-type declarations).
type versionDevices map[string]map[string][]machine.DeviceKind

// checkCapability verifies each task ran a version its device supports.
func checkCapability(tasks []trace.TaskRecord, vd versionDevices) error {
	for _, t := range tasks {
		kinds, ok := vd[t.Type][t.Version]
		if !ok {
			return fmt.Errorf("task %d ran unknown version %s.%s", t.TaskID, t.Type, t.Version)
		}
		found := false
		for _, k := range kinds {
			found = found || k == t.DeviceKind
		}
		if !found {
			return fmt.Errorf("task %d ran version %s on a %v device; it supports %v", t.TaskID, t.Version, t.DeviceKind, kinds)
		}
	}
	return nil
}

// checkTransferTotals verifies the result's per-category transfer bytes
// equal the sums over the transfer records.
func checkTransferTotals(res ompss.Result, transfers []xfer.Record) error {
	var sum [3]int64
	for _, r := range transfers {
		switch r.Category {
		case xfer.CatInput:
			sum[0] += r.Bytes
		case xfer.CatOutput:
			sum[1] += r.Bytes
		case xfer.CatDevice:
			sum[2] += r.Bytes
		}
	}
	got := [3]int64{res.InputTxBytes, res.OutputTxBytes, res.DeviceTxBytes}
	names := [3]string{"input", "output", "device"}
	for i := range got {
		if got[i] != sum[i] {
			return fmt.Errorf("%s transfers: result says %d bytes, records sum to %d", names[i], got[i], sum[i])
		}
	}
	return nil
}

// checkLearningMinimum verifies that, for every task type with two or
// more versions runnable on the machine, each of those versions ran at
// least lambda times: the versioning scheduler's learning phase must
// profile every version before trusting the fastest.
func checkLearningMinimum(counts map[string]map[string]int, runnable map[string][]string, lambda int) error {
	for _, typ := range sortedKeys(runnable) {
		vs := runnable[typ]
		if len(vs) < 2 {
			continue
		}
		for _, v := range vs {
			if n := counts[typ][v]; n < lambda {
				return fmt.Errorf("task type %s: version %s ran %d times, the learning phase needs %d", typ, v, n, lambda)
			}
		}
	}
	return nil
}

// checkVersionSum verifies a result's version counts add up to its task
// count.
func checkVersionSum(res ompss.Result) error {
	n := 0
	for _, vs := range res.VersionCounts {
		for _, c := range vs {
			n += c
		}
	}
	if n != res.Tasks {
		return fmt.Errorf("version counts sum to %d, task count is %d", n, res.Tasks)
	}
	return nil
}

// checkJournalOnce verifies the replayed journal shows every given cell
// done exactly once, and no other cell done.
func checkJournalOnce(tl *journal.Timeline, hashes []string) error {
	if tl.DoubleDone != 0 {
		return fmt.Errorf("journal shows %d cell(s) done more than once", tl.DoubleDone)
	}
	for _, h := range hashes {
		c, ok := tl.Cells[h]
		if !ok || c.Done != 1 {
			done := 0
			if ok {
				done = c.Done
			}
			return fmt.Errorf("journal shows cell %s done %d times, want 1", h, done)
		}
	}
	if tl.Done != len(hashes) {
		return fmt.Errorf("journal shows %d cells done, the grid has %d", tl.Done, len(hashes))
	}
	return nil
}

// checkSameResult verifies two runs of one spec agree on every
// virtual-time output.
func checkSameResult(got, want ompss.Result) error {
	switch {
	case got.Elapsed != want.Elapsed:
		return fmt.Errorf("makespan %v, want %v", got.Elapsed, want.Elapsed)
	case got.Tasks != want.Tasks:
		return fmt.Errorf("task count %d, want %d", got.Tasks, want.Tasks)
	case got.InputTxBytes != want.InputTxBytes || got.OutputTxBytes != want.OutputTxBytes || got.DeviceTxBytes != want.DeviceTxBytes:
		return fmt.Errorf("transfer bytes %d/%d/%d, want %d/%d/%d", got.InputTxBytes, got.OutputTxBytes, got.DeviceTxBytes,
			want.InputTxBytes, want.OutputTxBytes, want.DeviceTxBytes)
	}
	if a, b := flattenCounts(got.VersionCounts), flattenCounts(want.VersionCounts); a != b {
		return fmt.Errorf("version counts %s, want %s", a, b)
	}
	return nil
}

func flattenCounts(vc map[string]map[string]int) string {
	var parts []string
	for t, vs := range vc {
		for v, n := range vs {
			parts = append(parts, fmt.Sprintf("%s.%s=%d", t, v, n))
		}
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}
