package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/scenario"
)

// A workload is one closed-loop benchmark input: a single client runs a
// unit, waits for it to return, then starts the next. The reason for each
// workload is recorded in BENCHMARK.json and README.md.
type workload struct {
	name      string
	scenarios []string // files under workloads/; none for paper
}

var workloads = []workload{
	{name: "paper"},
	{name: "whatif-read", scenarios: []string{"read-htf.yaml", "read-render.yaml"}},
	{name: "whatif-write", scenarios: []string{"write-escat.yaml", "burst-escat.yaml", "ppfs-escat.yaml"}},
	{name: "fleet", scenarios: []string{"fleet.yaml"}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

// inputs are a workload's loaded and validated inputs: what set-up produces
// and every unit reuses.
type inputs struct {
	w         workload
	scenarios []*scenario.Scenario

	// golden is the digest every unit must produce; empty away from the
	// default seed, where units must instead agree with the warm-up unit.
	golden string
}

// load reads and validates a workload's inputs from the benchmark directory
// dir. The seed replaces every scenario's own seed.
func load(dir string, w workload, seed uint64) (*inputs, error) {
	in := &inputs{w: w}
	for _, f := range w.scenarios {
		sc, err := scenario.Load(filepath.Join(dir, "workloads", f))
		if err != nil {
			return nil, err
		}
		if sc.Assertions == nil {
			return nil, fmt.Errorf("%s: a benchmark scenario needs assertions", f)
		}
		sc.Seed = seed
		sc.Shards = procs
		in.scenarios = append(in.scenarios, sc)
	}
	golden, err := readGolden(dir)
	if err != nil {
		return nil, err
	}
	if seed == defaultSeed {
		in.golden = golden[w.name]
	}
	return in, nil
}

// readGolden reads golden.json; a missing file holds no digests.
func readGolden(dir string) (map[string]string, error) {
	golden := map[string]string{}
	data, err := os.ReadFile(filepath.Join(dir, "golden.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return golden, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return golden, nil
}

// writeGolden records digest as w's golden digest, keeping the others.
func writeGolden(dir, w, digest string) error {
	golden, err := readGolden(dir)
	if err != nil {
		return err
	}
	golden[w] = digest
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644)
}

// unitOut is what one unit produced.
type unitOut struct {
	digest string // SHA-256 of the unit's checked output
	ok     bool   // every scenario's verdict is ok
	counts counters
}

// unit runs one unit of the workload, recording spans into tr (nil when
// untraced).
func (in *inputs) unit(tr *tracer) (unitOut, error) {
	if len(in.scenarios) == 0 {
		return paperUnit(tr)
	}
	return in.scenarioUnit(tr)
}

// paperUnit is the paperrepro pipeline run serially: the three paper-scale
// studies, Tables 1-6, and all 16 figures as CSV, ASCII and SVG. The digest
// covers the table text and the figure bytes.
func paperUnit(tr *tracer) (unitOut, error) {
	out := unitOut{ok: true}
	h := sha256.New()
	for _, app := range core.Apps() {
		t := time.Now()
		s := core.PaperStudy(app)
		tr.add("scenario.build_s", t)

		t = time.Now()
		r, err := core.Run(s)
		tr.add("core.run."+string(app)+"_s", t)
		if err != nil {
			return out, fmt.Errorf("%s: %w", app, err)
		}
		out.counts.add(r)

		t = time.Now()
		var tables []string
		for _, pt := range core.PaperTables() {
			if pt.App == app {
				tables = append(tables, core.CompareTable(pt, r))
			}
		}
		for _, st := range core.PaperSizeTables() {
			if st.App == app {
				tables = append(tables, core.CompareSizeTable(st, r))
			}
		}
		tr.add("core.tables_s", t)

		t = time.Now()
		figs := r.Figures()
		tr.add("core.figures_s", t)

		rendered := make([][]byte, 0, 3*len(figs))
		for _, fig := range figs {
			t = time.Now()
			var csv bytes.Buffer
			if err := analysis.WriteCSV(&csv, fig.Points); err != nil {
				return out, fmt.Errorf("%s %s: %w", app, fig.ID, err)
			}
			tr.add("analysis.csv_s", t)

			t = time.Now()
			ascii := analysis.RenderScatter(fig.Points, analysis.PlotOptions{
				Title: fig.Title, LogY: fig.LogY, YLabel: yLabel(fig.LogY), XLabel: "time",
			})
			tr.add("analysis.ascii_s", t)

			t = time.Now()
			svg := analysis.RenderSVG(fig.Points, analysis.SVGOptions{
				Title: fig.Title, LogY: fig.LogY, YLabel: yLabel(fig.LogY), XLabel: "time (s)",
			})
			tr.add("analysis.svg_s", t)
			rendered = append(rendered, csv.Bytes(), []byte(ascii), []byte(svg))
		}

		for _, tbl := range tables {
			io.WriteString(h, tbl)
		}
		for _, b := range rendered {
			h.Write(b)
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// yLabel matches cmd/paperrepro's figure axis labels.
func yLabel(logY bool) string {
	if logY {
		return "request size"
	}
	return "file id"
}

// scenarioUnit runs each of the workload's scenarios the way Execute does,
// through the public calls it makes, so each layer can be timed on its own.
// The digest covers each scenario's rendered operation summary, its
// assertion block and its measurements.
func (in *inputs) scenarioUnit(tr *tracer) (unitOut, error) {
	out := unitOut{ok: true}
	h := sha256.New()
	for _, sc := range in.scenarios {
		t := time.Now()
		rs, _, err := sc.Build()
		fo, isFleet := sc.FleetOptions(sc.Shards)
		tr.add("scenario.build_s", t)
		if err != nil {
			return out, err
		}

		t = time.Now()
		var rr *core.ResilientReport
		var fr *core.FleetReport
		var runErr error
		if isFleet {
			s := rs.Study
			s.KeepTrace = true // Measure reads the representative cell's trace
			fr, runErr = core.RunFleet(s, fo)
			tr.add("core.run_fleet_s", t)
			if runErr == nil {
				rr = scenario.FleetResilientReport(fr)
			}
		} else {
			rr, runErr = core.RunResilient(rs)
			tr.add("core.run_resilient."+sc.Name+"_s", t)
		}
		if rr == nil {
			return out, fmt.Errorf("%s: %w", sc.Name, runErr)
		}

		t = time.Now()
		m := scenario.Measure(rr, runErr)
		checks := sc.Assertions.Evaluate(m)
		tr.add("scenario.measure_s", t)

		var summary string
		if rr.Final != nil {
			summary = rr.Final.Summary.Render(sc.Name)
		}
		verdict := scenario.RenderChecks(sc.Name, m, checks)

		fmt.Fprintf(h, "%s\n%s\n%s\n%+v\n", sc.Name, summary, verdict, m)
		if m.Outcome != scenario.OutcomeOK || !scenario.Passed(checks) {
			out.ok = false
			fmt.Fprintf(os.Stderr, "bench: %s: verdict not ok\n%s", sc.Name, verdict)
		}
		if fr != nil {
			for _, r := range fr.Cells {
				out.counts.add(r)
			}
			out.counts.windows += fr.Fabric.Windows
			out.counts.mail += fr.Fabric.Mail
		} else if rr.Final != nil {
			out.counts.add(rr.Final)
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// counters are the per-layer work counts one unit's reports expose.
type counters struct {
	events     int64 // application-visible traced operations
	phys       int64
	reroutes   int64
	mirror     int64
	repaired   int64
	collective int64
	reorders   int64
	cache      []cache.Stats
	windows    int64
	mail       int64
}

func (c *counters) add(r *core.Report) {
	c.events += int64(len(r.Events))
	c.phys += r.PhysRequests
	c.reroutes += r.Failover.Reroutes
	c.mirror += r.Failover.MirrorWrites
	c.repaired += r.Repair.ChunksRepaired
	if r.Collective != nil {
		c.collective += r.Collective.RequestsOut
	}
	for _, s := range r.Sched {
		c.reorders += s.Reorders
	}
	if r.Cache != nil {
		c.cache = append(c.cache, r.Cache.Total)
	}
}

// metrics names the counters as per-layer metrics.
func (c *counters) metrics() []metric {
	ca := cache.Aggregate(c.cache)
	return []metric{
		{"pablo.events", float64(c.events), "count"},
		{"pfs.phys_requests", float64(c.phys), "count"},
		{"pfs.reroutes", float64(c.reroutes), "count"},
		{"pfs.mirror_writes", float64(c.mirror), "count"},
		{"pfs.repair_chunks", float64(c.repaired), "count"},
		{"collective.phys_requests", float64(c.collective), "count"},
		{"ionode.sched_reorders", float64(c.reorders), "count"},
		{"cache.hit_ratio", ca.HitRatio(), "fraction"},
		{"cache.prefetch_accuracy", ca.PrefetchAccuracy(), "fraction"},
		{"cache.prefetch_issued", float64(ca.PrefetchIssued), "count"},
		{"fabric.windows", float64(c.windows), "count"},
		{"fabric.mail", float64(c.mail), "count"},
	}
}
