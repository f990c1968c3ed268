package workload

import "repro/internal/sim"

// Checkpointer is the application-facing surface of the checkpoint/restart
// subsystem (package ckpt implements it). An application that supports
// checkpointing structures its main loop as numbered work units and, when a
// Checkpointer is configured:
//
//   - starts the loop at ResumeUnit() instead of 0 (skipping initialization
//     work already covered by the checkpoint),
//   - has every node call Restore before resuming from a non-zero unit (the
//     restart read of its checkpoint slice), and
//   - has every node call AfterUnit at the end of each unit, which runs a
//     coordinated checkpoint when the unit falls on the checkpoint interval.
//
// Applications without natural units, or runs without fault injection, simply
// leave the Checkpointer nil.
type Checkpointer interface {
	// ResumeUnit returns the first work unit to execute: 0 on a cold start,
	// the unit after the last committed checkpoint on a restart.
	ResumeUnit() int

	// Restore charges node's restart read of its checkpoint slice. Called
	// by every node before resuming from a non-zero unit.
	Restore(p *sim.Process, fs FS, node int) error

	// AfterUnit marks unit complete on node. On checkpoint units all nodes
	// rendezvous inside it and write their state slices; the checkpoint
	// commits only after every node's write finished.
	AfterUnit(p *sim.Process, fs FS, node, unit int) error

	// TraceEvents returns the trace events checkpoint traffic adds to one
	// node's run of the work units from ResumeUnit() up to units: the
	// restore read on a restart plus the node's share of every checkpoint.
	TraceEvents(units int) int
}
