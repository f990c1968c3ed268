package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// One unit of every workload at the default seed must reproduce golden.json
// with every scenario verdict ok.
func TestUnitsMatchGolden(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := load(".", w, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			out, err := in.unit(tr)
			if err != nil {
				t.Fatal(err)
			}
			for name := range tr.cur {
				if !slices.Contains(unitSpans, name) {
					t.Errorf("span %s is missing from unitSpans", name)
				}
			}
			if !out.ok {
				t.Fatal("a scenario verdict is not ok")
			}
			if out.digest != in.golden {
				t.Fatalf("digest %s, golden.json has %s", out.digest, in.golden)
			}
			if out.counts.events == 0 {
				t.Fatal("no traced operations counted")
			}
		})
	}
}

// BENCHMARK.json must name exactly the metrics a run reports, with the same
// units: end-to-end ones untraced, per-layer ones traced.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []boundedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	one := timing{walls: []float64{1}, cpus: []float64{1}, busy: 1}
	tr := newTracer()
	tr.endUnit()
	check := func(kind string, declared []boundedMetric, reported []metric) {
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for _, m := range reported {
			got = append(got, m.name+" "+m.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics reported:\n%q\nBENCHMARK.json declares:\n%q", kind, got, want)
		}
	}
	check("end-to-end", def.EndToEnd, endToEnd(1, one))
	check("per-layer", def.PerLayer, perLayer([]float64{1}, one, one, tr, map[string]float64{}))
}

func TestPercentileNearestRank(t *testing.T) {
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(40 - i) // descending: percentile must sort
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{forty, 0.50, 20},
		{forty, 0.75, 30}, // ten samples (31..40) lie beyond it
		{[]float64{7}, 0.75, 7},
		{[]float64{4, 1, 3, 2}, 0.50, 2},
		{[]float64{4, 1, 3, 2}, 0.75, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.50, 3},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Quartiles must equal Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{ten, 2.75, 8.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestBucketTraces(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := bucketTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	const total = 1700.0 // ms of samples in the file
	want := map[string]float64{
		"pablo":         10 / total, // innermost repository frame, under runtime frames
		"apps":          20 / total, // apps/escat counts as apps
		"sim":           30 / total, // a blocking channel receive inside the engine
		"runtime_sched": 20 / total,
		"runtime_gc":    40 / total,
		"bench":         30 / total, // hashing called from main
		"runtime_other": 10 / total,
		"repo_other":    1500 / total, // a package missing from repoPackages
		"analysis":      40 / total,   // a repository frame wins over main
	}
	var sum float64
	for layer, got := range shares {
		sum += got
		if math.Abs(got-want[layer]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", layer, got, want[layer])
		}
	}
	for layer := range want {
		if _, ok := shares[layer]; !ok {
			t.Errorf("no %s share", layer)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestBucketTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := bucketTraces("File: bench\nType: cpu\n"); err == nil {
		t.Fatal("want an error for a profile without samples")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundedMetric{Name: "run_s_p50", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "sim_ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		head []float64
		m    boundedMetric
		want string
	}{
		{"slower beyond bound", scale(base, 1.2), lower, "worse"},
		{"faster beyond bound", scale(base, 0.8), lower, "better"},
		{"within bound", scale(base, 1.05), lower, "same"},
		{"throughput down", scale(base, 0.8), higher, "worse"},
		{"throughput up", scale(base, 1.2), higher, "better"},
		{"noisy head", []float64{0.5, 1.5, 1.0, 0.6, 1.4}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, c.head, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict([]float64{0.5, 1.5, 1.0, 0.6, 1.4}, base, lower); got != "unresolved" {
		t.Errorf("noisy base: verdict = %s, want unresolved", got)
	}
}
