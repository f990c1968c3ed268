package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// runner runs a workload's units and checks each one's output.
type runner struct {
	in        *inputs
	want      string // the digest every unit must produce
	attempted int
	failed    int
}

// warmUp runs the discarded first unit. At the default seed every unit must
// match golden.json; at any other seed the warm-up unit's digest becomes the
// one every later unit must repeat.
func (r *runner) warmUp() {
	r.want = r.in.golden
	if out, ok := r.unit(nil); ok {
		r.want = out.digest
	}
}

// unit runs and checks one unit. A unit fails when it errors, a scenario's
// verdict is not ok, or its digest differs from the expected one.
func (r *runner) unit(tr *tracer) (unitOut, bool) {
	r.attempted++
	out, err := r.in.unit(tr)
	tr.endUnit()
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.in.w.name, err)
	case !out.ok:
	case r.want != "" && out.digest != r.want:
		fmt.Fprintf(os.Stderr, "bench: %s: digest %s, want %s\n", r.in.w.name, out.digest, r.want)
	default:
		return out, true
	}
	r.failed++
	return out, false
}

// timing is one timed loop's measurements.
type timing struct {
	walls, cpus []float64 // per unit, seconds
	busy        float64   // the time spent inside units, seconds
	events      int64     // application-visible operations over all units
	runtime     runtimeDelta
	counts      counters // the last unit's layer counters
}

// timed runs units back to back until d has passed, at least one. Each
// unit starts on a collected heap, as it would in a fresh process, so no
// unit pays for collecting its predecessor's garbage.
func (r *runner) timed(d time.Duration, tr *tracer) timing {
	var t timing
	before := readRuntime()
	start := time.Now()
	for len(t.walls) == 0 || time.Since(start) < d {
		runtime.GC()
		c0 := cpuTime()
		u0 := time.Now()
		out, _ := r.unit(tr)
		wall := time.Since(u0).Seconds()
		t.walls = append(t.walls, wall)
		t.busy += wall
		t.cpus = append(t.cpus, (cpuTime() - c0).Seconds())
		t.events += out.counts.events
		t.counts = out.counts
	}
	t.runtime = readRuntime().since(before)
	return t
}

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the nearest-rank p-quantile of xs: the smallest sample
// with at least a share p of all samples at or below it. At n=40 the 0.75
// rank is the 30th sample, which leaves ten samples beyond it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so spreads here match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// The runtime/metrics a timed loop reads before and after.
const (
	rtAllocs   = "/gc/heap/allocs:bytes"
	rtCycles   = "/gc/cycles/total:gc-cycles"
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU = "/cpu/classes/total:cpu-seconds"
	rtSchedLat = "/sched/latencies:seconds"
)

type runtimeSnapshot []metrics.Sample

func readRuntime() runtimeSnapshot {
	s := runtimeSnapshot{{Name: rtAllocs}, {Name: rtCycles}, {Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtSchedLat}}
	metrics.Read(s)
	return s
}

// runtimeDelta is what the Go runtime did between two snapshots.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
	schedLatP50                           float64 // seconds
}

func (s runtimeSnapshot) since(before runtimeSnapshot) runtimeDelta {
	num := func(i int) float64 {
		v, b := s[i].Value, before[i].Value
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64() - b.Uint64())
		}
		return v.Float64() - b.Float64()
	}
	return runtimeDelta{
		allocBytes:  num(0),
		gcCycles:    num(1),
		gcCPU:       num(2),
		totalCPU:    num(3),
		schedLatP50: histMedian(s[4].Value.Float64Histogram(), before[4].Value.Float64Histogram()),
	}
}

// histMedian returns the upper edge of the bucket holding the median of the
// samples added between two readings of a runtime histogram.
func histMedian(after, before *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if total > 0 && 2*seen >= total {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// tracer keeps, for each span name, the time each unit spent in the calls
// that span brackets. A nil tracer records nothing: untraced runs pass nil.
type tracer struct {
	cur   map[string]time.Duration
	units map[string][]float64
}

func newTracer() *tracer {
	return &tracer{cur: map[string]time.Duration{}, units: map[string][]float64{}}
}

// add charges the time since start to the span name.
func (tr *tracer) add(name string, start time.Time) {
	if tr != nil {
		tr.cur[name] += time.Since(start)
	}
}

// endUnit closes the current unit's spans.
func (tr *tracer) endUnit() {
	if tr == nil {
		return
	}
	for _, name := range unitSpans {
		tr.units[name] = append(tr.units[name], tr.cur[name].Seconds())
	}
	clear(tr.cur)
}

// unitSpans are the spans units record, in report order: each bracket's
// wall time per unit, summed over the calls it brackets. A span a workload
// does not pass through reads 0 there.
var unitSpans = []string{
	"scenario.build_s",
	"core.run.escat_s", "core.run.render_s", "core.run.htf_s",
	"core.run_resilient.read-htf_s", "core.run_resilient.read-render_s",
	"core.run_resilient.write-escat_s", "core.run_resilient.burst-escat_s",
	"core.run_resilient.ppfs-escat_s", "core.run_fleet_s",
	"scenario.measure_s", "core.tables_s", "core.figures_s",
	"analysis.csv_s", "analysis.ascii_s", "analysis.svg_s",
}
