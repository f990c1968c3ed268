// Benchmark harness: one benchmark per reproduced table and figure (the
// experiment index E1-E21 of DESIGN.md). Each benchmark runs the relevant
// paper-scale study end to end and reports, alongside the harness timing,
// the simulated quantities the paper's table or figure is about — so
// `go test -bench=. -benchmem` regenerates every headline number.
package iochar_test

import (
	"testing"

	iochar "repro"
	"repro/internal/analysis"
	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/apps/render"
	"repro/internal/cache"
	"repro/internal/iotrace"
	"repro/internal/ppfs"
	"repro/internal/sim"
)

// runPaper executes a paper-scale study once per iteration and returns the
// last report.
func runPaper(b *testing.B, app iochar.AppID, pol *iochar.Policy) *iochar.Report {
	b.Helper()
	var report *iochar.Report
	for i := 0; i < b.N; i++ {
		study := iochar.PaperStudy(app)
		study.Policy = pol
		r, err := iochar.Run(study)
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	return report
}

// --- ESCAT: Tables 1-2, Figures 2-5 (E1-E6) ---

func BenchmarkTable1ESCATOps(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	b.ReportMetric(float64(r.Summary.Total.Count), "ops")
	b.ReportMetric(r.Summary.Total.NodeTime.Seconds(), "io-node-s")
	b.ReportMetric(r.Summary.Row("Seek").Pct, "seek-pct")
	b.ReportMetric(r.Summary.Row("Write").Pct, "write-pct")
}

func BenchmarkTable2ESCATSizes(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	rb := r.Sizes.Read.Buckets()
	wb := r.Sizes.Write.Buckets()
	b.ReportMetric(float64(rb[0]), "reads-lt4K")
	b.ReportMetric(float64(rb[2]), "reads-lt256K")
	b.ReportMetric(float64(wb[0]), "writes-lt4K")
}

func BenchmarkFigure2ESCATReadTimeline(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	fig, err := r.Figure(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fig.Points.Len()), "points")
}

func BenchmarkFigure3ESCATReadDetail(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	fig, err := r.Figure(3)
	if err != nil {
		b.Fatal(err)
	}
	// The detail figure covers only the initialization spike.
	span := fig.Points.At(fig.Points.Len()-1).T - fig.Points.At(0).T
	b.ReportMetric(span.Seconds(), "init-span-s")
	b.ReportMetric(float64(fig.Points.Len()), "points")
}

func BenchmarkFigure4ESCATWriteTimeline(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	early, late, bursts := escat.WriteBurstTrend(analysis.FilterPhase(r.Events, escat.PhaseQuadrature), 30*sim.Second)
	b.ReportMetric(float64(bursts), "bursts")
	b.ReportMetric(early.Seconds(), "early-spacing-s")
	b.ReportMetric(late.Seconds(), "late-spacing-s")
}

func BenchmarkFigure5ESCATFileAccess(b *testing.B) {
	r := runPaper(b, iochar.ESCAT, nil)
	fig, err := r.Figure(5)
	if err != nil {
		b.Fatal(err)
	}
	files := map[int64]bool{}
	for i := range fig.Points.Len() {
		files[fig.Points.At(i).Y] = true
	}
	b.ReportMetric(float64(len(files)), "active-files")
}

// --- RENDER: Tables 3-4, Figures 6-8 (E7-E11, E20) ---

func BenchmarkTable3RENDEROps(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	b.ReportMetric(float64(r.Summary.Total.Count), "ops")
	b.ReportMetric(r.Summary.Row("I/O Wait").Pct, "iowait-pct")
	b.ReportMetric(r.Summary.Row("Write").Pct, "write-pct")
}

func BenchmarkTable4RENDERSizes(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	rb := r.Sizes.Read.Buckets()
	wb := r.Sizes.Write.Buckets()
	b.ReportMetric(float64(rb[3]), "reads-ge256K")
	b.ReportMetric(float64(wb[3]), "writes-ge256K")
}

func BenchmarkFigure6RENDERReadTimeline(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	fig, err := r.Figure(6)
	if err != nil {
		b.Fatal(err)
	}
	// The init->render transition time (paper: ~210 s).
	var transition sim.Time
	for _, e := range r.Events {
		if e.Phase == render.PhaseInit && e.End > transition {
			transition = e.End
		}
	}
	b.ReportMetric(transition.Seconds(), "transition-s")
	b.ReportMetric(float64(fig.Points.Len()), "points")
}

func BenchmarkFigure7RENDERWriteTimeline(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	fig, err := r.Figure(7)
	if err != nil {
		b.Fatal(err)
	}
	frames := 0
	for i := range fig.Points.Len() {
		if fig.Points.At(i).Y >= 256*1024 {
			frames++
		}
	}
	b.ReportMetric(float64(frames), "frame-writes")
	_ = fig
}

func BenchmarkFigure8RENDERFileAccess(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	fig, err := r.Figure(8)
	if err != nil {
		b.Fatal(err)
	}
	files := map[int64]bool{}
	for i := range fig.Points.Len() {
		files[fig.Points.At(i).Y] = true
	}
	b.ReportMetric(float64(len(files)), "active-files")
}

func BenchmarkRENDERInitThroughput(b *testing.B) {
	r := runPaper(b, iochar.RENDER, nil)
	b.ReportMetric(render.InitReadThroughput(analysis.FilterPhase(r.Events, render.PhaseInit))/1e6, "MBps")
}

// --- HTF: Tables 5-6, Figures 9-17 (E12-E17) ---

func BenchmarkTable5HTFOps(b *testing.B) {
	r := runPaper(b, iochar.HTF, nil)
	for _, ph := range []iotrace.Phase{htf.PhasePsetup, htf.PhasePargos, htf.PhasePscf} {
		s := r.PhaseSummary(ph)
		b.ReportMetric(float64(s.Total.Count), ph.String()+"-ops")
	}
	b.ReportMetric(r.PhaseSummary(htf.PhasePargos).Row("Open").Pct, "pargos-open-pct")
	b.ReportMetric(r.PhaseSummary(htf.PhasePscf).Row("Read").Pct, "pscf-read-pct")
}

func BenchmarkTable6HTFSizes(b *testing.B) {
	r := runPaper(b, iochar.HTF, nil)
	pargos := r.PhaseSizes(htf.PhasePargos)
	pscf := r.PhaseSizes(htf.PhasePscf)
	b.ReportMetric(float64(pargos.Write.Buckets()[2]), "pargos-writes-lt256K")
	b.ReportMetric(float64(pscf.Read.Buckets()[2]), "pscf-reads-lt256K")
}

func benchHTFPhaseFigure(b *testing.B, readFig int) {
	r := runPaper(b, iochar.HTF, nil)
	rf, err := r.Figure(readFig)
	if err != nil {
		b.Fatal(err)
	}
	wf, err := r.Figure(readFig + 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rf.Points.Len()), "read-points")
	b.ReportMetric(float64(wf.Points.Len()), "write-points")
}

func BenchmarkFigure9And10HTFInitTimelines(b *testing.B)      { benchHTFPhaseFigure(b, 9) }
func BenchmarkFigure11And12HTFIntegralTimelines(b *testing.B) { benchHTFPhaseFigure(b, 11) }
func BenchmarkFigure13And14HTFSCFTimelines(b *testing.B)      { benchHTFPhaseFigure(b, 13) }

func BenchmarkFigure15To17HTFFileAccess(b *testing.B) {
	r := runPaper(b, iochar.HTF, nil)
	for _, n := range []int{15, 16, 17} {
		fig, err := r.Figure(n)
		if err != nil {
			b.Fatal(err)
		}
		files := map[int64]bool{}
		for i := range fig.Points.Len() {
			files[fig.Points.At(i).Y] = true
		}
		b.ReportMetric(float64(len(files)), fig.ID+"-files")
	}
}

// --- Policy and analysis experiments (E18, E19, E21) ---

// BenchmarkAblationESCATWriteBehind is the §5.2 experiment: ESCAT through
// PPFS write-behind + aggregation, against the raw-PFS baseline. It uses a
// 32-node, 20-cycle configuration so both sides run in one benchmark
// iteration.
func BenchmarkAblationESCATWriteBehind(b *testing.B) {
	cfg := escat.DefaultConfig()
	cfg.Nodes = 32
	cfg.Iterations = 20
	cfg.ComputeStart = 20 * sim.Second
	cfg.ComputeEnd = 10 * sim.Second
	var baseWrite, layeredWrite sim.Time
	var sweeps int64
	for i := 0; i < b.N; i++ {
		run := func(pol *iochar.Policy) *iochar.Report {
			study := iochar.PaperStudy(iochar.ESCAT)
			study.App = cfg
			study.Policy = pol
			r, err := iochar.Run(study)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		base := run(nil)
		pol := iochar.DefaultPolicy()
		layered := run(&pol)
		baseWrite = base.Summary.Row("Write").NodeTime
		layeredWrite = layered.Summary.Row("Write").NodeTime
		sweeps = layered.PolicyStats.Flushes
	}
	b.ReportMetric(baseWrite.Seconds(), "pfs-write-s")
	b.ReportMetric(layeredWrite.Seconds(), "ppfs-write-s")
	b.ReportMetric(float64(sweeps), "aggregated-sweeps")
}

// BenchmarkCacheESCATReads is the §8 I/O-node cache what-if at paper scale:
// ESCAT's small sequential reads with and without the per-node block cache.
// The simulated metrics record the pre/post mean read latency and the hit
// ratio that produced the change.
func BenchmarkCacheESCATReads(b *testing.B) {
	meanRead := func(r *iochar.Report) sim.Time {
		var n int64
		var t sim.Time
		for _, label := range []string{"Read", "AsynchRead"} {
			if row := r.Summary.Row(label); row != nil {
				n += row.Count
				t += row.NodeTime
			}
		}
		if n == 0 {
			return 0
		}
		return t / sim.Time(n)
	}
	var base, cached sim.Time
	var hit float64
	for i := 0; i < b.N; i++ {
		run := func(on bool) *iochar.Report {
			study := iochar.PaperStudy(iochar.ESCAT)
			if on {
				study.Machine.PFS.Cache = cache.DefaultConfig()
			}
			r, err := iochar.Run(study)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		baseR, cachedR := run(false), run(true)
		base, cached = meanRead(baseR), meanRead(cachedR)
		hit = cachedR.Cache.Total.HitRatio()
	}
	b.ReportMetric(base.Seconds()*1e3, "pfs-read-ms")
	b.ReportMetric(cached.Seconds()*1e3, "cached-read-ms")
	b.ReportMetric(100*hit, "hit-pct")
}

func BenchmarkCrossoverHTFRecompute(b *testing.B) {
	m := htf.DefaultCrossoverModel()
	var breakEven float64
	for i := 0; i < b.N; i++ {
		rates := make([]float64, 0, 64)
		for r := 0.5e6; r <= 32e6; r *= 1.1 {
			rates = append(rates, r)
		}
		pts := m.Sweep(rates)
		for _, p := range pts {
			if p.ReadWins {
				breakEven = p.IORate
				break
			}
		}
	}
	b.ReportMetric(breakEven/1e6, "breakeven-MBps")
}

func BenchmarkAdaptiveClassifier(b *testing.B) {
	// Classify the full ESCAT trace's streams (E21): throughput of the
	// classifier plus the resulting pattern mix.
	study := iochar.PaperStudy(iochar.ESCAT)
	report, err := iochar.Run(study)
	if err != nil {
		b.Fatal(err)
	}
	events := report.Events
	b.ResetTimer()
	var seq, other int
	for i := 0; i < b.N; i++ {
		c := ppfs.NewClassifier()
		for _, e := range events {
			c.Observe(e.File, int(e.Node), e.Op, e.Offset, e.Bytes)
		}
		seq, other = 0, 0
		for node := 0; node < 128; node++ {
			for _, f := range []iotrace.FileID{7, 8} {
				if c.Classify(f, node).Pattern == ppfs.PatternSequential {
					seq++
				} else {
					other++
				}
			}
		}
	}
	b.ReportMetric(float64(seq), "sequential-streams")
	b.ReportMetric(float64(other), "other-streams")
	_ = analysis.HumanBytes
}

// BenchmarkRecomputeVsRereadHTF runs the §7.2 decision in simulation: the
// SCF phase with stored-integral rereads vs integral recomputation, on the
// traced (slow) I/O system. The paper's conclusion — recomputation wins
// until per-node I/O reaches 5-10 MB/s — shows up as wall-clock times.
func BenchmarkRecomputeVsRereadHTF(b *testing.B) {
	var reread, recompute float64
	for i := 0; i < b.N; i++ {
		run := func(rc bool) float64 {
			cfg := htf.SmallConfig()
			cfg.Nodes = 16
			cfg.IntegralRecords = 96
			cfg.SCFPasses = 3
			cfg.RecomputeIntegrals = rc
			study := iochar.PaperStudy(iochar.HTF)
			study.App = cfg
			r, err := iochar.Run(study)
			if err != nil {
				b.Fatal(err)
			}
			return r.Wall.Seconds()
		}
		reread = run(false)
		recompute = run(true)
	}
	b.ReportMetric(reread, "reread-wall-s")
	b.ReportMetric(recompute, "recompute-wall-s")
}
