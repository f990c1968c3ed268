// Renderflyby reproduces the paper's §6 RENDER scenario: a Mars "virtual
// flyby" where a gateway node streams a multi-hundred-megabyte terrain data
// set in with prefetched asynchronous reads and then emits one ~1 MB frame
// per rendered view. The example reports the two §6.2 headline numbers —
// initialization read throughput and frame cadence — and sketches the
// frame-rate implications of directing output to a HiPPi frame buffer
// instead of the file system.
package main

import (
	"fmt"
	"log"

	iochar "repro"
	"repro/internal/analysis"
	"repro/internal/apps/render"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	// A mid-sized flyby: production terrain layout, 20 frames.
	cfg := render.DefaultConfig()
	cfg.Frames = 20
	study := iochar.PaperStudy(iochar.RENDER)
	study.App = cfg

	report, err := iochar.Run(study)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flyby complete: %.0f simulated seconds, %s of terrain data, %d frames\n\n",
		report.Wall.Seconds(),
		analysis.HumanBytes(report.Summary.Row("AsynchRead").Volume),
		cfg.Frames)

	fmt.Printf("initialization read throughput: %.1f MB/s (paper: ~9.5 MB/s)\n",
		render.InitReadThroughput(analysis.FilterPhase(report.Events, render.PhaseInit))/1e6)

	// Frame cadence from the write timeline.
	renderEvents := analysis.FilterPhase(report.Events, render.PhaseRender)
	writes := analysis.WriteTimeline(renderEvents)
	var first, last sim.Time
	frames := 0
	for i := range writes.Len() {
		if pt := writes.At(i); pt.Y >= 256*1024 {
			if frames == 0 {
				first = pt.T
			}
			last = pt.T
			frames++
		}
	}
	if frames > 1 {
		span := (last - first).Seconds()
		perFrame := span / float64(frames-1)
		fmt.Printf("frame cadence: %.2f s/frame (%.2f frames/s; paper: several seconds per frame)\n",
			perFrame, 1/perFrame)

		// §6.2: production output goes to a HiPPi frame buffer, removing
		// the per-frame file create/write/close. Estimate the cadence
		// without that file-system time.
		var ioPerFrame float64
		for _, e := range renderEvents {
			switch e.Op {
			case iotrace.OpWrite, iotrace.OpOpen, iotrace.OpClose:
				ioPerFrame += e.Duration().Seconds()
			}
		}
		ioPerFrame /= float64(frames)
		fmt.Printf("with HiPPi output (no per-frame file I/O): ~%.2f s/frame (%.2f frames/s; target: 10)\n",
			perFrame-ioPerFrame, 1/(perFrame-ioPerFrame))
	}

	// The paper's Figure 6/7 shapes, rendered as ASCII.
	for _, n := range []int{6, 7} {
		fig, err := report.Figure(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(analysis.RenderScatter(fig.Points, analysis.PlotOptions{
			Title: fig.Title, Width: 72, Height: 14, LogY: true,
			YLabel: "request size", XLabel: "time",
		}))
	}
}
