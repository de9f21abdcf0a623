package main

import (
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"fekf/internal/obs"
)

// rankPhases are the spans a rank records inside a collective step.
var rankPhases = map[string]bool{
	"backward": true, "allreduce": true, "gain": true, "drain": true, "exchange": true,
}

// spanTotals aggregates the program's step traces over a range of steps.
type spanTotals struct {
	steps   int
	ranks   int
	sumMs   map[string]float64 // total duration per span name
	count   map[string]int     // occurrences per span name
	wallMs  float64            // summed step trace durations
	coverMs float64            // part of wallMs covered by any span
	skewMs  float64            // summed (last rank finish - first rank finish)
	drainMs float64            // summed drain span durations
	hidMs   float64            // part of drainMs overlapped by the same rank's other phases
}

type interval struct{ lo, hi int64 }

// union returns the total length covered by a set of intervals.
func union(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x.lo <= curHi {
			if x.hi > curHi {
				curHi = x.hi
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x.lo, x.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// overlap returns how much of x the intervals cover.
func overlap(x interval, iv []interval) int64 {
	var clipped []interval
	for _, y := range iv {
		lo, hi := max(x.lo, y.lo), min(x.hi, y.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return union(clipped)
}

// analyze folds the traces of steps in (lo, hi] into span totals.
func analyze(traces []obs.StepTrace, lo, hi int64) spanTotals {
	t := spanTotals{sumMs: map[string]float64{}, count: map[string]int{}}
	for _, st := range traces {
		if st.Step <= lo || st.Step > hi {
			continue
		}
		t.steps++
		t.wallMs += float64(st.DurNs) / 1e6
		all := make([]interval, 0, len(st.Spans))
		finish := map[int]int64{}
		busy := map[int][]interval{}
		for _, sp := range st.Spans {
			iv := interval{sp.StartNs, sp.StartNs + sp.DurNs}
			all = append(all, iv)
			t.sumMs[sp.Name] += float64(sp.DurNs) / 1e6
			t.count[sp.Name]++
			if sp.Rank < 0 || !rankPhases[sp.Name] {
				continue
			}
			if iv.hi > finish[sp.Rank] {
				finish[sp.Rank] = iv.hi
			}
			if sp.Name != "drain" && sp.Name != "gain" {
				busy[sp.Rank] = append(busy[sp.Rank], iv)
			}
		}
		for _, sp := range st.Spans {
			if sp.Name == "drain" && sp.Rank >= 0 {
				t.drainMs += float64(sp.DurNs) / 1e6
				t.hidMs += float64(overlap(interval{sp.StartNs, sp.StartNs + sp.DurNs}, busy[sp.Rank])) / 1e6
			}
		}
		t.coverMs += float64(union(all)) / 1e6
		if len(finish) > t.ranks {
			t.ranks = len(finish)
		}
		if len(finish) > 1 {
			first, last := int64(-1), int64(0)
			for _, f := range finish {
				if first < 0 || f < first {
					first = f
				}
				if f > last {
					last = f
				}
			}
			t.skewMs += float64(last-first) / 1e6
		}
	}
	return t
}

// perOccurrence is the mean duration of one span name.
func (t spanTotals) perOccurrence(name string) float64 {
	return ratio(t.sumMs[name], float64(t.count[name]))
}

// perRankStep is a rank phase's time per step and rank.
func (t spanTotals) perRankStep(name string) float64 {
	return ratio(t.sumMs[name], float64(t.steps*t.ranks))
}

// runtimeSample reads the Go runtime counters the per-layer metrics use,
// and the CPU time the kernel charged the process (user plus system, in
// ms), which leaves out time other tenants took from its vCPUs.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
	processCPUMs                          float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return runtimeSample{}
	}
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	return runtimeSample{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3], processCPUMs: cpu}
}

// promSeries sums the values of the exposition lines of one series whose
// labels contain match (match "" takes every line of the series).
func promSeries(text, series, match string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series+"{") && !strings.HasPrefix(line, series+" ") {
			continue
		}
		if match != "" && !strings.Contains(line, match) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
