package core

import (
	"math"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/iotrace"
	"repro/internal/race"
)

// TestHTFFiguresAndTablesPartitionOnce checks that every per-phase view of
// an HTF report (nine figures, six tables, six comparison tables) reads one
// shared phase partition instead of filtering the trace per call. HTF runs
// its three programs one after another, so the partition aliases the trace
// and the views allocate only their own output: less than half a copy of
// the trace beyond the figures' points, where per-call filtering copies the
// whole trace three times over. The allocation bound skips under -race,
// whose runtime allocates on its own; the aliasing checks still run.
func TestHTFFiguresAndTablesPartitionOnce(t *testing.T) {
	r, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	figs := r.Figures()
	tables := r.Tables()
	for _, c := range r.Comparisons() {
		tables = append(tables, c.Text)
	}
	goruntime.ReadMemStats(&ms1)
	if len(figs) != 9 || len(tables) != 12 {
		t.Fatalf("%d figures and %d tables, want 9 and 12", len(figs), len(tables))
	}
	for _, ph := range []iotrace.Phase{htf.PhasePsetup, htf.PhasePargos, htf.PhasePscf} {
		if evs := r.phaseEvents(ph); len(evs) == 0 || !aliases(evs, r.Events) {
			t.Fatalf("phase %s is not a sub-slice of the trace", ph)
		}
	}
	if race.Enabled {
		return
	}
	var points uint64
	for _, f := range figs {
		points += uint64(f.Points.Len()) * uint64(unsafe.Sizeof(int32(0)))
	}
	trace := uint64(len(r.Events)) * uint64(unsafe.Sizeof(iotrace.Event{}))
	if extra := ms1.TotalAlloc - ms0.TotalAlloc - points; extra >= trace/2 {
		t.Fatalf("figures and tables allocated %d bytes beyond their points; the trace is %d", extra, trace)
	}
}

// TestFiguresAllocBound holds Report.Figures on each paper-scale report to
// its timelines' indices: 4 bytes per point, plus per figure its entry in
// the returned slice and the heap's rounding of its index up to a size
// class or to whole 8 KB pages. Copying the points (32 bytes each) would
// exceed that by megabytes. It takes the least of three runs, so the
// report's phase partition, built on first use, is not counted, and it
// skips under -race, whose runtime allocates on its own.
func TestFiguresAllocBound(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const perFigure = 8<<10 + 256
	for _, app := range Apps() {
		r := paperReport(t, app)
		var figs []Figure
		got := uint64(math.MaxUint64)
		var before, after goruntime.MemStats
		for range 3 {
			goruntime.ReadMemStats(&before)
			figs = r.Figures()
			goruntime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		points := 0
		for _, f := range figs {
			points += f.Points.Len()
		}
		if limit := uint64(4*points + perFigure*len(figs)); got > limit {
			t.Errorf("%s: Figures allocated %d bytes for %d figures of %d points, want at most %d",
				app, got, len(figs), points, limit)
		}
	}
}

// aliases reports whether sub lies inside all's backing array.
func aliases(sub, all []iotrace.Event) bool {
	first := uintptr(unsafe.Pointer(&all[0]))
	p := uintptr(unsafe.Pointer(&sub[0]))
	return p >= first && p < first+uintptr(len(all))*unsafe.Sizeof(all[0])
}

// TestPhaseEventsMatchFilterPhase checks the partition against the plain
// filter for every phase of every app, including phases no event carries,
// and for a value outside the phase set.
func TestPhaseEventsMatchFilterPhase(t *testing.T) {
	for _, app := range Apps() {
		r, err := Run(SmallStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		for ph := iotrace.Phase(0); ph <= iotrace.Phase(iotrace.NumPhases); ph++ {
			got, want := r.phaseEvents(ph), analysis.FilterPhase(r.Events, ph)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s phase %q: partition has %d events, filter %d", app, ph, len(got), len(want))
			}
		}
	}
}

func TestPartitionPhasesInterleaved(t *testing.T) {
	a, b := iotrace.PhaseQuadrature, iotrace.PhaseReload
	events := []iotrace.Event{
		{Offset: 0, Phase: a}, {Offset: 1, Phase: a}, {Offset: 2, Phase: b},
		{Offset: 3, Phase: a}, {Offset: 4, Phase: iotrace.PhaseNone}, {Offset: 5, Phase: b},
	}
	byPhase := partitionPhases(events)
	for _, ph := range []iotrace.Phase{a, b, iotrace.PhaseNone, iotrace.PhaseOutput} {
		if got, want := byPhase[ph], analysis.FilterPhase(events, ph); !reflect.DeepEqual(got, want) {
			t.Fatalf("phase %q: %v, want %v", ph, got, want)
		}
	}
	// Contiguous phases alias the trace, capped so an append cannot
	// overwrite the next phase.
	contiguous := events[:3]
	first := partitionPhases(contiguous)[a]
	if &first[0] != &contiguous[0] || cap(first) != 2 {
		t.Fatalf("contiguous phase copied or uncapped: cap %d", cap(first))
	}
}

// TestReportReadersConcurrent runs figure, table and phase-summary readers
// of one report at once; under -race it checks the lazy partition is safe
// to share, and that every reader sees the same output.
func TestReportReadersConcurrent(t *testing.T) {
	r, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	tables := make([][]string, readers)
	figs := make([][]Figure, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = r.Tables()
			figs[i] = r.Figures()
			r.PhaseSummary(htf.PhasePscf)
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if !reflect.DeepEqual(tables[i], tables[0]) || !reflect.DeepEqual(figs[i], figs[0]) {
			t.Fatalf("reader %d saw different output", i)
		}
	}
}
