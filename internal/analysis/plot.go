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
func RenderScatter(tl Timeline, opts PlotOptions) string {
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
	if tl.Len() == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}

	tMin, tMax, yMin, yMax := tl.bounds()
	if tMax == tMin {
		tMax = tMin + 1
	}
	// Offsets are float64 differences, as in RenderSVG: an int64 difference
	// overflows on a span wider than int64's range and indexes off the grid.
	lo := math.Log10(math.Max(1, float64(yMin)))
	hi := math.Log10(math.Max(1, float64(yMax)))
	ySpan := float64(yMax) - float64(yMin)
	yPos := func(y int64) int {
		if opts.LogY {
			if hi == lo {
				return 0
			}
			v := math.Log10(math.Max(1, float64(y)))
			return int((v - lo) / (hi - lo) * float64(opts.Height-1))
		}
		if ySpan <= 0 {
			return 0
		}
		return int((float64(y) - float64(yMin)) / ySpan * float64(opts.Height-1))
	}
	tSpan := max(float64(tMax)-float64(tMin), 1)

	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for i := range tl.Len() {
		e := tl.event(i)
		x := int((float64(e.Start) - float64(tMin)) / tSpan * float64(opts.Width-1))
		y := yPos(tl.y(e))
		row := opts.Height - 1 - y
		m := markFor(e.Op)
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
			v = float64(yMin) + frac*ySpan
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
