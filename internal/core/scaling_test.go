package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps/escat"
	"repro/internal/exec"
	"repro/internal/sim"
)

// ScalingPoint is one row of a node-scaling sweep.
type ScalingPoint struct {
	Nodes     int
	Wall      sim.Time // simulated wall clock
	IOTime    sim.Time // summed node time in I/O
	SeekWrite sim.Time // the contended quadrature path (ESCAT's bottleneck)
}

// ESCATScaling runs the ESCAT skeleton across compute-partition sizes with
// the per-node work held constant, quantifying how the shared-file
// small-write pattern scales — the paper's observation that production runs
// "generate similar behavior, but with ten to twenty hour executions on 512
// processors" and §8's warning that small-request patterns do not ride the
// hardware's parallelism.
func ESCATScaling(nodeCounts []int, iterations int) ([]ScalingPoint, error) {
	return exec.Map(nodeCounts, func(_ int, n int) (ScalingPoint, error) {
		cfg := escat.DefaultConfig()
		cfg.Nodes = n
		cfg.Iterations = iterations
		cfg.ComputeStart = 20 * sim.Second
		cfg.ComputeEnd = 10 * sim.Second
		study := PaperStudy(ESCAT)
		study.ESCATConfig = &cfg
		study.Machine.ComputeNodes = n
		r, err := Run(study)
		if err != nil {
			return ScalingPoint{}, fmt.Errorf("scaling at %d nodes: %w", n, err)
		}
		pt := ScalingPoint{Nodes: n, Wall: r.Wall, IOTime: r.Summary.Total.NodeTime}
		if w := r.Summary.Row("Write"); w != nil {
			pt.SeekWrite += w.NodeTime
		}
		if s := r.Summary.Row("Seek"); s != nil {
			pt.SeekWrite += s.NodeTime
		}
		return pt, nil
	})
}

// RenderScaling formats a scaling sweep.
func RenderScaling(pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %14s %16s\n", "nodes", "wall", "I/O node-time", "seek+write time")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %11.1fs %13.1fs %15.1fs\n",
			p.Nodes, p.Wall.Seconds(), p.IOTime.Seconds(), p.SeekWrite.Seconds())
	}
	return b.String()
}

// BenchmarkScalingESCATNodes sweeps the compute-partition size with per-node
// work fixed (experiment A5): the superlinear node-time growth of the
// shared-file small-write pattern.
func BenchmarkScalingESCATNodes(b *testing.B) {
	var pts []ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = ESCATScaling([]int{16, 32, 64}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.SeekWrite.Seconds(), fmt.Sprintf("nodes%d-seekwrite-s", p.Nodes))
	}
}
