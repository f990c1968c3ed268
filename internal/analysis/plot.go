package analysis

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/iotrace"
)

// PlotOptions configures the ASCII scatter renderer.
type PlotOptions struct {
	Title  string
	Width  int  // plot area columns (default 72)
	Height int  // plot area rows (default 20)
	LogY   bool // logarithmic y axis (right for request sizes spanning B..MB)
	YLabel string
	XLabel string
}

// markFor picks the plot glyph: the paper's figures use diamonds for reads
// and crosses for writes; in ASCII we use 'o' and '+'.
func markFor(op iotrace.Op) byte {
	switch op {
	case iotrace.OpWrite:
		return '+'
	case iotrace.OpRead, iotrace.OpAsyncRead:
		return 'o'
	default:
		return '.'
	}
}

// RenderScatter draws a timeline as an ASCII scatter plot, the textual
// analogue of the paper's figures. Reads render as 'o', writes as '+'; a
// cell holding both renders as '*'.
func RenderScatter(pts []Point, opts PlotOptions) string {
	if opts.Width <= 0 {
		opts.Width = 72
	}
	if opts.Height <= 0 {
		opts.Height = 20
	}
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	if len(pts) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}

	tMin, tMax := pts[0].T, pts[0].T
	yMin, yMax := pts[0].Y, pts[0].Y
	for _, p := range pts {
		if p.T < tMin {
			tMin = p.T
		}
		if p.T > tMax {
			tMax = p.T
		}
		if p.Y < yMin {
			yMin = p.Y
		}
		if p.Y > yMax {
			yMax = p.Y
		}
	}
	if tMax == tMin {
		tMax = tMin + 1
	}

	lo := math.Log10(math.Max(1, float64(yMin)))
	hi := math.Log10(math.Max(1, float64(yMax)))
	yPos := func(y int64) int {
		if opts.LogY {
			if hi == lo {
				return 0
			}
			v := math.Log10(math.Max(1, float64(y)))
			return int((v - lo) / (hi - lo) * float64(opts.Height-1))
		}
		if yMax == yMin {
			return 0
		}
		return int(float64(y-yMin) / float64(yMax-yMin) * float64(opts.Height-1))
	}

	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for _, p := range pts {
		x := int(float64(p.T-tMin) / float64(tMax-tMin) * float64(opts.Width-1))
		y := yPos(p.Y)
		row := opts.Height - 1 - y
		m := markFor(p.Op)
		switch cur := grid[row][x]; {
		case cur == ' ':
			grid[row][x] = m
		case cur != m:
			grid[row][x] = '*'
		}
	}

	yAxisLabel := func(row int) string {
		frac := float64(opts.Height-1-row) / math.Max(1, float64(opts.Height-1))
		var v float64
		if opts.LogY {
			v = math.Pow(10, lo+frac*(hi-lo))
		} else {
			v = float64(yMin) + frac*float64(yMax-yMin)
		}
		return humanBytes(v)
	}

	for row := 0; row < opts.Height; row++ {
		label := ""
		if row == 0 || row == opts.Height-1 || row == opts.Height/2 {
			label = yAxisLabel(row)
		}
		fmt.Fprintf(&b, "%10s |%s|\n", label, string(grid[row]))
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", opts.Width))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", opts.Width-10,
		fmt.Sprintf("%.0fs", tMin.Seconds()), fmt.Sprintf("%10.0fs", tMax.Seconds()))
	legend := "o = read   + = write   * = both"
	if opts.YLabel != "" || opts.XLabel != "" {
		legend += "   (" + opts.YLabel
		if opts.XLabel != "" {
			legend += " vs " + opts.XLabel
		}
		legend += ")"
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", legend)
	return b.String()
}

// humanBytes renders a byte count compactly (B, KB, MB, GB).
func humanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// HumanBytes formats an integer byte count for reports.
func HumanBytes(n int64) string { return humanBytes(float64(n)) }
