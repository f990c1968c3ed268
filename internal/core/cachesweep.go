package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// meanFor returns the mean per-operation node time over the labelled summary
// rows (e.g. "Read" + "AsynchRead" for the paper's read columns).
func meanFor(s analysis.OpSummary, labels ...string) (sim.Time, int64) {
	var n int64
	var t sim.Time
	for _, l := range labels {
		if r := s.Row(l); r != nil {
			n += r.Count
			t += r.NodeTime
		}
	}
	if n == 0 {
		return 0, 0
	}
	return t / sim.Time(n), n
}

// compare fills the cache-side ratios of a comparison row from per-node
// stats.
func compare(name, op string, base, cached *Report, labels ...string) analysis.CacheComparison {
	bm, n := meanFor(base.Summary, labels...)
	cm, _ := meanFor(cached.Summary, labels...)
	row := analysis.CacheComparison{
		Name: name, Op: op, Ops: n,
		BaseMean: bm, CachedMean: cm,
		BaseWall: base.Wall, CachedWall: cached.Wall,
	}
	if cached.Cache != nil {
		t := cached.Cache.Total
		row.HitRatio = t.HitRatio()
		row.PrefetchAccuracy = t.PrefetchAccuracy()
		row.Coalescing = t.Coalescing()
	}
	return row
}

// CacheSweep runs each of the paper's three applications twice — cache
// disabled, then enabled with ccfg — and reports the mean read-latency
// change. It is the §8 what-if quantified: ESCAT's small sequential reads
// and HTF's record-oriented integral traffic are the patterns an I/O-node
// cache with pattern-driven prefetch serves well.
func CacheSweep(small bool, ccfg cache.Config) ([]analysis.CacheComparison, error) {
	ccfg.Enabled = true
	apps := Apps()
	pairs, err := runPairs("cache sweep", [2]string{"base", "cached"}, apps,
		func(app AppID, cached bool) (*Report, error) {
			study := sweepStudy(app, small)
			if cached {
				study.Machine.PFS.Cache = ccfg
			}
			return Run(study)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CacheComparison, 0, len(apps))
	for i, app := range apps {
		rows = append(rows, compare(string(app), "Read", pairs[i][0], pairs[i][1], "Read", "AsynchRead"))
	}
	return rows, nil
}

// sweepStudy returns the study an application sweep runs for app: the
// paper-scale one, or the reduced one when small.
func sweepStudy(app AppID, small bool) Study {
	if small {
		return SmallStudy(app)
	}
	return PaperStudy(app)
}

// runPairs runs every cell twice — the base configuration, then the
// alternative — fanning all the runs out on the executor as [cell0 base,
// cell0 alt, cell1 base, ...], and returns the results paired by cell. sweep
// names the caller and kinds the two runs for error messages; a cell prints
// with %v.
func runPairs[C, R any](sweep string, kinds [2]string, cells []C,
	run func(cell C, alt bool) (R, error)) ([][2]R, error) {
	results, err := exec.Map(make([]struct{}, 2*len(cells)), func(j int, _ struct{}) (R, error) {
		cell, alt := cells[j/2], j%2 == 1
		r, err := run(cell, alt)
		if err != nil {
			return r, fmt.Errorf("%s: %v %s: %w", sweep, cell, kinds[j%2], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	pairs := make([][2]R, len(cells))
	for i := range pairs {
		pairs[i] = [2]R{results[2*i], results[2*i+1]}
	}
	return pairs, nil
}

// syntheticStudy returns the study that runs one synthetic workload under
// pcfg.
func syntheticStudy(scfg workload.SyntheticConfig, pcfg pfs.Config) Study {
	return Study{App: scfg, Machine: workload.MachineConfig{PFS: pcfg}, KeepTrace: true}
}

// modeCell is one row of a mode-by-mode comparison sweep: the workload plus
// the summary labels its latency column reads.
type modeCell struct {
	name   string
	op     string
	labels []string
	scfg   workload.SyntheticConfig
}

// modeCells builds the six per-mode synthetic workloads shared by the cache
// and integrity mode sweeps.
func modeCells() []modeCell {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	cells := make([]modeCell, 0, len(modes))
	for _, mode := range modes {
		cell := modeCell{
			name:   mode.String(),
			op:     "Write",
			labels: []string{"Write"},
			scfg: workload.SyntheticConfig{
				Nodes:       8,
				Mode:        mode,
				RecordBytes: 4096,
				Records:     32,
			},
		}
		if mode == iotrace.ModeGlobal {
			cell.op, cell.labels = "Read", []string{"Read"}
		}
		cells = append(cells, cell)
	}
	return cells
}

// String names the cell in sweep error messages.
func (c modeCell) String() string { return c.name }

// runModes returns the runPairs function for a mode sweep: each cell's
// synthetic workload under base, then under alt.
func runModes(base, alt pfs.Config) func(modeCell, bool) (*Report, error) {
	return func(cell modeCell, isAlt bool) (*Report, error) {
		pcfg := base
		if isAlt {
			pcfg = alt
		}
		return Run(syntheticStudy(cell.scfg, pcfg))
	}
}

// ModeCacheSweep compares cached against uncached runs of one synthetic
// workload (eight nodes moving fixed records through a shared file) under
// all six PFS access modes, plus a fully random read workload whose working
// set exceeds the cache — the control showing the cache buys nothing without
// locality.
func ModeCacheSweep(ccfg cache.Config) ([]analysis.CacheComparison, error) {
	ccfg.Enabled = true
	base := pfs.DefaultConfig()
	cachedCfg := base
	cachedCfg.Cache = ccfg

	cells := modeCells()
	// Control: uniform random 64 KB reads over a working set two orders of
	// magnitude beyond the per-node cache — every access misses, so the
	// cached and uncached runs should be indistinguishable.
	capBytes := ccfg.Normalized().CapacityBytes
	cells = append(cells, modeCell{
		name:   "random-read",
		op:     "Read",
		labels: []string{"Read"},
		scfg: workload.SyntheticConfig{
			Nodes:       8,
			Mode:        iotrace.ModeAsync,
			RecordBytes: 64 * 1024,
			Records:     32,
			Read:        true,
			Random:      true,
			Seed:        42,
			FileBytes:   128 * capBytes,
		},
	})

	pairs, err := runPairs("mode sweep", [2]string{"base", "cached"}, cells, runModes(base, cachedCfg))
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CacheComparison, 0, len(cells))
	for i, cell := range cells {
		rows = append(rows, compare(cell.name, cell.op, pairs[i][0], pairs[i][1], cell.labels...))
	}
	return rows, nil
}
