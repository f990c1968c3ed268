package core

import (
	"fmt"
	"strings"

	"repro/internal/apps/htf"
	"repro/internal/exec"
)

// CrossoverModel captures §7.2's recompute-versus-reread analysis for the
// Hartree-Fock integrals: storing integrals pays only if reading one back
// takes less time than the ~500 floating-point operations needed to
// recompute it. With the traced data set's ~56 bytes per integral and a
// mid-1990s node's ~50 MFLOP/s, the break-even per-node I/O rate lands at
// 5-10 MB/s — the paper's conclusion that every processor would need a
// directly attached disk.
type CrossoverModel struct {
	FlopsPerIntegral float64 // recomputation cost (paper: ~500)
	NodeFlopRate     float64 // FLOP/s per node (Paragon i860: ~50e6 sustained)
	BytesPerIntegral float64 // storage per integral (~56 B for the 16-atom set)
}

// DefaultCrossoverModel returns the paper-calibrated parameters, the ones
// the HTF skeleton's recompute variant charges.
func DefaultCrossoverModel() CrossoverModel {
	return CrossoverModel{
		FlopsPerIntegral: htf.FlopsPerIntegral,
		NodeFlopRate:     htf.NodeFlopRate,
		BytesPerIntegral: htf.BytesPerIntegral,
	}
}

// RecomputeTime returns the seconds to recompute one integral.
func (m CrossoverModel) RecomputeTime() float64 {
	return m.FlopsPerIntegral / m.NodeFlopRate
}

// ReadTime returns the seconds to read one integral back at the given
// per-node I/O rate (bytes/second).
func (m CrossoverModel) ReadTime(ioRate float64) float64 {
	return m.BytesPerIntegral / ioRate
}

// BreakEvenRate returns the per-node I/O rate (bytes/second) at which
// reading an integral costs exactly as much as recomputing it.
func (m CrossoverModel) BreakEvenRate() float64 {
	return m.BytesPerIntegral * m.NodeFlopRate / m.FlopsPerIntegral
}

// CrossoverPoint is one row of the sweep: an I/O rate and which strategy
// wins there.
type CrossoverPoint struct {
	IORate        float64 // bytes/second per node
	ReadTime      float64 // seconds per integral, reread strategy
	RecomputeTime float64 // seconds per integral, recompute strategy
	ReadWins      bool
}

// Sweep evaluates the model across per-node I/O rates. The points are
// independent, so they ride the sweep executor like the simulation sweeps
// (the closed-form math makes each point trivial, but the rate grids the
// CLIs pass can be arbitrarily fine).
func (m CrossoverModel) Sweep(rates []float64) []CrossoverPoint {
	rc := m.RecomputeTime()
	out, _ := exec.Map(rates, func(_ int, rate float64) (CrossoverPoint, error) {
		rt := m.ReadTime(rate)
		return CrossoverPoint{
			IORate: rate, ReadTime: rt, RecomputeTime: rc, ReadWins: rt < rc,
		}, nil
	})
	return out
}

// RenderSweep formats a sweep as the rows the §7.2 discussion implies.
func RenderSweep(pts []CrossoverPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14s %16s %16s %10s\n", "I/O MB/s/node", "read us/integral", "recompute us", "winner")
	for _, p := range pts {
		winner := "recompute"
		if p.ReadWins {
			winner = "read"
		}
		fmt.Fprintf(&b, "%14.2f %16.3f %16.3f %10s\n",
			p.IORate/1e6, p.ReadTime*1e6, p.RecomputeTime*1e6, winner)
	}
	return b.String()
}
