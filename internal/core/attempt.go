// The attempt step: one run of a study on one engine. Every driver — Run,
// each attempt of RunResilient, each cell of a fleet, and the synthetic mode
// sweeps through Run — builds, arms, fails and reports its run with these
// functions, so what a run produced is decided in exactly one place:
//
//	prepare → arm → run → failure → finishReport
//
// This is the only non-test file in the package that builds a machine,
// injects faults, or runs an engine; CI rejects a private run path elsewhere.

package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/fault"
	"repro/internal/pablo"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// appErr lets the attempt step surface failures collected inside node
// programs.
type appErr interface{ Err() error }

// runtime bundles everything one simulation attempt needs: the machine, the
// instrumented file system stack, the application, and the armed fault
// injector (nil when no discrete fault events are scheduled).
type runtime struct {
	m          *workload.Machine
	fs         workload.FS
	tracer     *pablo.Tracer
	physTracer *pablo.Tracer
	lifetime   *pablo.LifetimeReducer
	windows    *pablo.WindowReducer
	layer      *ppfs.FileSystem
	burst      *burst.Tier
	app        workload.App
	inj        *fault.Injector
}

// errNoApp rejects a study that names no application.
var errNoApp = errors.New("core: study has no app")

// prepare builds a fresh runtime, on a fresh engine, for one attempt of the
// study. The returned study has defaults merged in and its compute partition
// sized to the app.
func prepare(s Study) (Study, *runtime, error) {
	if s.App == nil {
		return s, nil, errNoApp
	}
	s.Machine.ComputeNodes = s.App.ComputeNodes()
	m, err := workload.NewMachine(s.Machine)
	if err != nil {
		return s, nil, err
	}
	if s.WindowWidth <= 0 {
		s.WindowWidth = 10 * sim.Second
	}
	app, err := s.App.New()
	if err != nil {
		return s, nil, err
	}
	rt := &runtime{
		m:        m,
		app:      app,
		tracer:   pablo.NewTracer(s.KeepTrace),
		lifetime: pablo.NewLifetimeReducer(),
		windows:  pablo.NewWindowReducer(s.WindowWidth),
	}
	// The app knows exactly how many events its run records (the paper's
	// operation counts), so capture appends into one buffer and never
	// regrows. A restart that falls back to an older checkpoint generation
	// after this point records more and grows once.
	events := app.TraceEvents()
	rt.tracer.Reserve(events)
	rt.tracer.Attach(rt.lifetime)
	rt.tracer.Attach(rt.windows)

	if s.Policy != nil {
		// The physical stream has no size hint: its count depends on what
		// the run's write-behind merges and its cache and prefetch add (see
		// DESIGN.md §5.1), so no count fixed before the run bounds it.
		rt.physTracer = pablo.NewTracer(s.KeepTrace)
		m.PFS.SetRecorder(rt.physTracer)
		rt.layer = ppfs.New(m.Eng, m.PFS, *s.Policy)
		rt.layer.SetRecorder(rt.tracer)
		rt.fs = rt.layer
	} else {
		m.PFS.SetRecorder(rt.tracer)
		rt.fs = workload.WrapPFS(m.PFS)
	}
	if s.Burst.Enabled {
		if s.Policy != nil {
			return s, nil, fmt.Errorf("core: the burst tier and a PPFS policy layer are mutually exclusive")
		}
		rt.burst, err = burst.New(m.Eng, m.PFS, m.Nodes, s.Burst)
		if err != nil {
			return s, nil, err
		}
		rt.fs = rt.burst
	}
	return s, rt, nil
}

// planEvents materializes the study's discrete fault schedule; nil for the
// empty plan.
func planEvents(s Study) []fault.Event {
	if s.Faults.Empty() {
		return nil
	}
	return s.Faults.Materialize(s.FaultSeed, s.Machine.PFS.IONodes, s.App.ComputeNodes())
}

// arm arms the study's fault plan against the runtime's machine: corruption
// via the checksum stores' write-path policies and bit-rot drivers, discrete
// events via the injector, each delayed by offset (a fleet cell's launch;
// events are shifted in place). Without discrete events no injector
// processes are spawned, so the healthy path is untouched.
func (rt *runtime) arm(s Study, events []fault.Event, offset sim.Time) {
	if !s.Faults.Corruption.Empty() {
		fault.ArmCorruption(rt.m.Eng, rt.m.PFS.IONodes(), s.Faults.Corruption, s.FaultSeed)
	}
	if len(events) == 0 {
		return
	}
	for i := range events {
		events[i].At += offset
	}
	hooks := fault.NodeLossHooks{Nodes: rt.m.Nodes, Halt: rt.m.Eng.Stop}
	if rt.burst != nil {
		hooks.Undrained = rt.burst.UndrainedNode
	}
	if rt.m.PFS.RepairEnabled() {
		hooks.OnOutageStart = rt.m.PFS.NoteOutageStart
		hooks.OnOutageEnd = rt.m.PFS.NoteOutageEnd
	}
	rt.inj = fault.Inject(rt.m.Eng, rt.m.PFS.IONodes(), events, hooks)
}

// run launches the application at start and drives the runtime's engine
// until it goes idle or a failure halts it. At time zero the launch is
// inline. A later launch (a fleet cell's) is a process spawned at start
// after arm has spawned the injector's, so a fault armed for the launch
// instant fires first.
func (rt *runtime) run(start sim.Time) error {
	if start == 0 {
		return workload.Run(rt.m, rt.fs, rt.app)
	}
	var launchErr error
	rt.m.Eng.SpawnAt("launch", start, func(p *sim.Process) {
		if launchErr = rt.app.Launch(rt.m, rt.fs); launchErr != nil {
			p.Engine().Stop()
		}
	})
	err := rt.m.Eng.Run()
	if launchErr != nil {
		return fmt.Errorf("%s: launch: %w", rt.app.Name(), launchErr)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", rt.app.Name(), err)
	}
	return nil
}

// failure reports what killed the attempt, if anything a completed engine
// run can hide: the first compute-node loss and the first error a node
// program collected. Either halts the engine, as the real machine kills the
// job.
func (rt *runtime) failure() (*fault.NodeLossEvent, error) {
	var err error
	if ae, ok := rt.app.(appErr); ok {
		err = ae.Err()
	}
	if rt.inj != nil {
		if nl, ok := rt.inj.FirstNodeLoss(); ok {
			return &nl, err
		}
	}
	return nil, err
}

// jobErr is failure as the error a single-attempt run returns: Run and the
// fleet driver treat a killed job as a failed run.
func (rt *runtime) jobErr() error {
	loss, err := rt.failure()
	if err != nil {
		return fmt.Errorf("%s: %w", rt.app.Name(), err)
	}
	if loss != nil {
		return fmt.Errorf("%s: compute node %d lost at %v (%d undrained burst-log bytes)",
			rt.app.Name(), loss.Node, loss.At, loss.UndrainedBytes)
	}
	return nil
}

// clockPadded reports whether background processes (bit-rot drivers, the
// scrubber, collective straggler timers) keep the engine clock running past
// the application's finish, so the run's wall clock must come from the trace.
func (rt *runtime) clockPadded(s Study) bool {
	return !s.Faults.Corruption.Empty() || rt.m.PFS.ScrubWindowEnd() > 0 ||
		rt.m.PFS.CollectiveEnabled() || rt.m.PFS.RepairEnabled() || rt.burst != nil
}

// report assembles the study's report after a completed run.
func (rt *runtime) report(s Study) *Report {
	r := &Report{
		App:      AppID(rt.app.Name()),
		Wall:     rt.m.Eng.Now(),
		Events:   rt.tracer.Events(),
		Summary:  analysis.Summarize(rt.tracer.Events()),
		Sizes:    analysis.Sizes(rt.tracer.Events()),
		Lifetime: rt.lifetime,
		Windows:  rt.windows,
		Failover: rt.m.PFS.FailoverStats(),
		Repair:   rt.m.PFS.RepairStats(),
	}
	r.ReplicationFactor = rt.m.PFS.ReplicationFactor()
	r.repairOn = rt.m.PFS.RepairEnabled()
	if rt.physTracer != nil {
		r.Physical = rt.physTracer.Events()
	} else {
		r.Physical = r.Events
	}
	if rt.layer != nil {
		st := rt.layer.Stats()
		r.PolicyStats = &st
	}
	r.Cache = analysis.BuildCacheReport(rt.m.PFS.CacheStats())
	if st, ok := rt.m.PFS.CollectiveStats(); ok {
		r.Collective = &st
	}
	if rt.burst != nil {
		r.Burst = analysis.BuildBurstReport(rt.burst.Stats(), r.Events)
	}
	r.Sched = rt.m.PFS.SchedStats()
	r.PhysRequests = rt.m.PFS.PhysRequests()
	if !s.Faults.Corruption.Empty() {
		// End-of-run audit: sweep every tracked block so latent corruption
		// is detected (and, where parity allows, repaired) before the report
		// tallies coverage. Accounting only — no simulated time.
		rt.m.PFS.AuditIntegrity()
	}
	r.Integrity = analysis.BuildIntegrityReport(
		rt.m.PFS.IntegrityStats(), rt.m.PFS.IntegrityEvents(), rt.m.PFS.ReliabilityStats())
	return r
}

// finishReport assembles a successful attempt's report: the trace-derived
// tables, the wall-clock correction for runs whose background daemons
// outlive the application, and the realized incident timeline.
func finishReport(s Study, rt *runtime) *Report {
	r := rt.report(s)
	if rt.inj != nil || rt.clockPadded(s) {
		// Injector drivers (a background rebuild, a not-yet-due storm) and
		// integrity daemons (scrubber, bit-rot arrivals) can outlive the
		// application; the run's wall clock is the application's own finish.
		// Without a kept trace the engine clock stands in.
		if end := analysis.AppEnd(r.Events); end > 0 {
			r.Wall = end
		}
	}
	if rt.inj != nil {
		rt.inj.CloseOpen(rt.m.Eng.Now())
		incs := rt.inj.Incidents()
		if end := analysis.AppEnd(r.Events); end > 0 {
			// The incident timeline ends with the application too: faults
			// realized after its last operation affected nothing.
			incs = capIncidents(incs, end)
		}
		r.Incidents = incs
	}
	if r.Integrity != nil && len(r.Integrity.Events) > 0 {
		// Corruption incidents are not capped at the application's finish:
		// the scrubber legitimately detects and repairs latent errors after
		// the last application operation, and the report should say so.
		r.Incidents = mergeIncidents(r.Incidents, fault.CorruptionIncidents(r.Integrity.Events))
	}
	return r
}

// mergeIncidents interleaves two incident timelines by start time.
func mergeIncidents(a, b []fault.Incident) []fault.Incident {
	out := make([]fault.Incident, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// capIncidents truncates a successful attempt's incident timeline at the
// application's last traced operation. Incidents starting later are dropped,
// ones spanning the cut are left open-ended there.
func capIncidents(incs []fault.Incident, cut sim.Time) []fault.Incident {
	var out []fault.Incident
	for _, inc := range incs {
		if inc.Start > cut {
			continue
		}
		if inc.End > cut {
			inc.End = cut
			inc.Open = true
		}
		out = append(out, inc)
	}
	return out
}
