package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// runSteady repeats the selected workloads n times each, alternating
// them, every run in a fresh process with the next seed, and prints each
// metric's median, quartiles and spread (the quartile distance as a
// share of the median) next to its bound. This is the record the bounds
// in BENCHMARK.json are set from.
func runSteady(names []string, seed int64, o childOpts, n int) int {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	fails := map[string][2]int64{}
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range names {
			res, err := child(w, seed+int64(i), o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: steady run %d: %v\n", i, err)
				code = 1
				continue
			}
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				vals[w][k] = append(vals[w][k], m.Value)
				units[k] = m.Unit
			}
			f := fails[w]
			fails[w] = [2]int64{f[0] + res.Attempted, f[1] + res.Failed}
			line, _ := json.Marshal(res)
			fmt.Fprintf(os.Stderr, "run %d %s seed %d: %s\n", i, w, seed+int64(i), line)
		}
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	fmt.Printf("host: %s, nproc %d, %s; %d runs per workload of %gs, seeds %d..%d\n",
		hostCPU(), runtime.NumCPU(), runtime.Version(), n, o.seconds, seed, seed+int64(n)-1)
	fmt.Printf("| workload | metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|\n")
	for _, w := range names {
		for _, k := range sortedKeys(vals[w]) {
			q1, q2, q3 := quartiles(vals[w][k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			bound := "-"
			if b, ok := bounds[k]; ok {
				bound = fmt.Sprintf("%.2f", b)
			}
			fmt.Printf("| %s | %s (%s) | %.6g | %.6g | %.6g | %.3f | %s |\n", w, k, units[k], q2, q1, q3, spread, bound)
		}
		f := fails[w]
		fmt.Printf("| %s | failed / attempted | %d / %d | | | | |\n", w, f[1], f[0])
	}
	return code
}

// hostCPU names the processor from /proc/cpuinfo, or "unknown".
func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
