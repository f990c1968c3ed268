// Command bench is the repository's benchmark: it times the paper
// reproduction and three what-if workloads end to end, checks every unit's
// output against golden digests, and in a traced run breaks the time down
// by layer. See README.md for the workloads, the metrics and how to read
// them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME[,NAME...]|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -update-golden [-workload NAME[,NAME...]|all]
//	bash bench/run.sh -compare BASE HEAD
//
// A single workload prints its metrics, then one JSON object as the last
// line of standard output. The exit code is 1 when any unit's output was
// wrong and 2 when the benchmark could not run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run uses: the two CPUs of the host the
// benchmark was defined on, fixed so runs on larger hosts stay comparable.
const procs = 2

// setupReps is how many times a run repeats set-up to report its median.
const setupReps = 31

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	runtime.GOMAXPROCS(procs)
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	dir     string // the benchmark directory: workloads/ and golden.json
	seed    uint64
	seconds time.Duration
	trace   int // 1 for the traced variant
	out     string
}

func run(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workloads to run, comma-separated: paper, whatif-read, whatif-write, fleet; or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 25, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant, reporting per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "append each workload's result record to this JSON-lines file")
	update := fs.Bool("update-golden", false, "run one unit per workload at the default seed and rewrite golden.json")
	cmp := fs.Bool("compare", false, "compare the records of two -out files: -compare BASE HEAD")
	setupOnly := fs.Bool("setup-only", false, "load and validate one workload's inputs, then exit; used to time setup_s")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	c := config{dir: ".", seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace, out: *out}
	if _, err := os.Stat("bench/workloads"); err == nil {
		c.dir = "bench" // run from the repository root
	}
	if *cmp {
		if fs.NArg() != 2 {
			return false, errors.New("-compare takes two files: BASE HEAD")
		}
		return true, compare(filepath.Join(c.dir, "..", "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if c.seconds <= 0 {
		return false, fmt.Errorf("-seconds %v: want a positive length", *seconds)
	}

	selected := workloads
	if *name != "all" {
		selected = nil
		for _, n := range strings.Split(*name, ",") {
			w, err := findWorkload(n)
			if err != nil {
				return false, err
			}
			selected = append(selected, w)
		}
	}
	switch {
	case *setupOnly:
		_, err := load(c.dir, selected[0], c.seed)
		return err == nil, err
	case *update:
		return updateGolden(c, selected, stdout)
	case len(selected) > 1:
		return runAll(c, selected, stdout)
	}
	rec, ms, err := runOne(c, selected[0])
	if err != nil {
		return false, err
	}
	if err := report(c, rec, ms, stdout); err != nil {
		return false, err
	}
	return rec.Result.Correct, nil
}

// result is the JSON object each run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runOne runs one workload: set-up, a discarded warm-up unit, then the
// timed loop. Untraced, it reports the end-to-end metrics; traced, it runs
// half the time untraced and half with spans, runtime metrics and a CPU
// profile, and reports the per-layer metrics.
func runOne(c config, w workload) (record, []metric, error) {
	rec := record{Workload: w.name, Seed: c.seed, Trace: c.trace}
	var ms []metric
	var setup float64
	if c.trace == 0 {
		var err error
		if setup, err = timeSetup(c, w); err != nil {
			return rec, nil, err
		}
	}
	var in *inputs
	var loads []float64
	for range setupReps {
		t := time.Now()
		var err error
		if in, err = load(c.dir, w, c.seed); err != nil {
			return rec, nil, err
		}
		loads = append(loads, time.Since(t).Seconds())
	}
	if c.seed == defaultSeed && in.golden == "" {
		return rec, nil, fmt.Errorf("golden.json has no digest for %s (run -update-golden)", w.name)
	}
	r := &runner{in: in}
	r.warmUp()

	if c.trace == 0 {
		ms = endToEnd(setup, r.timed(c.seconds, nil))
	} else {
		plain := r.timed(c.seconds/2, nil)
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return rec, nil, err
		}
		traced := r.timed(c.seconds/2, tr)
		shares, err := prof.stop()
		if err != nil {
			return rec, nil, err
		}
		ms = perLayer(loads, plain, traced, tr, shares)
	}
	rec.Result = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		rec.Result.Metrics[m.name] = value{m.value, m.unit}
	}
	return rec, ms, nil
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(setup float64, t timing) []metric {
	return []metric{
		{"setup_s", setup, "s"},
		{"run_s_p50", percentile(t.walls, 0.50), "s"},
		{"run_s_p75", percentile(t.walls, 0.75), "s"},
		{"cpu_s_p50", percentile(t.cpus, 0.50), "s"},
		{"sim_ops_per_s", float64(t.events) / t.busy, "ops/s"},
		{"alloc_mb_per_unit", t.runtime.allocBytes / float64(len(t.walls)) / 1e6, "MB"},
	}
}

// perLayer assembles the traced run's metrics.
func perLayer(loads []float64, plain, traced timing, tr *tracer, shares map[string]float64) []metric {
	ms := []metric{{"scenario.load_s", median(loads), "s"}}
	for _, name := range unitSpans {
		ms = append(ms, metric{name, median(tr.units[name]), "s"})
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{"cpu." + l, shares[l], "fraction"})
	}
	ms = append(ms, traced.counts.metrics()...)
	rt := traced.runtime
	units := float64(len(traced.walls))
	gcFrac := 0.0
	if rt.totalCPU > 0 {
		gcFrac = rt.gcCPU / rt.totalCPU
	}
	return append(ms,
		metric{"go.alloc_mb", rt.allocBytes / units / 1e6, "MB"},
		metric{"go.gc_cycles", rt.gcCycles / units, "count"},
		metric{"go.gc_cpu_frac", gcFrac, "fraction"},
		metric{"go.sched_latency_p50_us", rt.schedLatP50 * 1e6, "us"},
		metric{"trace.overhead_frac", median(traced.walls)/median(plain.walls) - 1, "fraction"},
	)
}

// timeSetup runs set-up alone in a fresh process setupReps times, after one
// discarded run that warms the page cache, and returns the median wall time
// from exec until the inputs are loaded and validated and the golden
// digests read.
func timeSetup(c config, w workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i <= setupReps; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10))
		cmd.Stderr = os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		if i > 0 {
			ts = append(ts, time.Since(t).Seconds())
		}
	}
	return median(ts), nil
}

// report prints a run's metrics, one per line, then its result object as
// the last line, and appends the record to -out.
func report(c config, rec record, ms []metric, stdout io.Writer) error {
	res := rec.Result
	fmt.Fprintf(stdout, "%s, seed %d: %d units including 1 warm-up, %d failed\n",
		rec.Workload, rec.Seed, res.Attempted, res.Failed)
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-33s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if c.out != "" {
		if err := appendRecord(c.out, rec); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs each workload in a fresh child process, one after another,
// echoing each one's report, and ends with one result object whose metrics
// are named <workload>.<metric>.
func runAll(c config, ws []workload, stdout io.Writer) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10),
			"-seconds", strconv.FormatFloat(c.seconds.Seconds(), 'g', -1, 64),
			"-trace", strconv.Itoa(c.trace)}
		if c.out != "" {
			args = append(args, "-out", c.out)
		}
		cmd := exec.Command(exe, args...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return false, fmt.Errorf("%s printed no result (%v)", w.name, runErr)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return total.Correct, nil
}

// updateGolden runs one unit of each workload at the default seed and
// records its digest in golden.json. Only a unit whose verdicts are all ok
// is recorded.
func updateGolden(c config, ws []workload, stdout io.Writer) (bool, error) {
	if c.seed != defaultSeed {
		return false, fmt.Errorf("-update-golden records the default seed %d, not %d", defaultSeed, c.seed)
	}
	for _, w := range ws {
		in, err := load(c.dir, w, c.seed)
		if err != nil {
			return false, err
		}
		out, err := in.unit(nil)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		if !out.ok {
			return false, nil
		}
		if err := writeGolden(c.dir, w.name, out.digest); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "golden %-13s %s\n", w.name, out.digest)
	}
	return true, nil
}
