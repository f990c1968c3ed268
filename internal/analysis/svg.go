package analysis

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// SVGOptions configures the SVG scatter renderer.
type SVGOptions struct {
	Title  string
	Width  int  // pixel width (default 720)
	Height int  // pixel height (default 420)
	LogY   bool // logarithmic y axis (request sizes)
	YLabel string
	XLabel string
}

// SVG mark bodies: everything of a mark's path element after its "M x y"
// start point. Diamonds for reads, crosses for writes (the paper's legend).
const (
	svgMarkStart = `<path d="M`
	svgReadMark  = ` m0 -3 l3 3 l-3 3 l-3 -3 z" fill="none" stroke="#2c5f8a" stroke-width="1"/>` + "\n"
	svgWriteMark = ` l3 3 m0 -3 l-3 3" stroke="#c0392b" stroke-width="1" transform="translate(-1.5,-1.5)"/>` + "\n"
)

// The plot area's margins inside RenderSVG's canvas, in pixels.
const (
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 50
)

// RenderSVG draws a timeline as a standalone SVG document in the visual
// vocabulary of the paper's figures: diamonds for reads, crosses for writes,
// time on the x axis. The output is self-contained (no external assets) and
// renders in any browser. It is built once into a buffer of svgSize bytes
// and returned as those bytes, with no copy.
func RenderSVG(tl Timeline, opts SVGOptions) []byte {
	if opts.Width <= 0 {
		opts.Width = 720
	}
	if opts.Height <= 0 {
		opts.Height = 420
	}
	plotW := float64(opts.Width - marginL - marginR)
	plotH := float64(opts.Height - marginT - marginB)

	b := bytes.NewBuffer(make([]byte, 0, svgSize(tl, opts)))
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		opts.Width, opts.Height, opts.Width, opts.Height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", opts.Width, opts.Height)
	if opts.Title != "" {
		fmt.Fprintf(b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginL, escapeXML(opts.Title))
	}
	// Plot frame.
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="black"/>`+"\n",
		marginL, marginT, plotW, plotH)

	if tl.Len() == 0 {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13">(no data)</text>`+"\n",
			marginL+10, marginT+30)
		b.WriteString("</svg>\n")
		return b.Bytes()
	}

	tMin, tMax, yMin, yMax := tl.bounds()
	if tMax == tMin {
		tMax = tMin + 1
	}
	// Offsets are float64 differences: an int64 difference overflows on a
	// span wider than int64's range, and would put a mark off the canvas.
	logLo := math.Log10(math.Max(1, float64(yMin)))
	logHi := math.Log10(math.Max(1, float64(yMax)))
	ySpan := float64(yMax) - float64(yMin)
	yPos := func(y int64) float64 {
		var frac float64
		if opts.LogY {
			if logHi > logLo {
				frac = (math.Log10(math.Max(1, float64(y))) - logLo) / (logHi - logLo)
			}
		} else if ySpan > 0 {
			frac = (float64(y) - float64(yMin)) / ySpan
		}
		return float64(marginT) + plotH*(1-frac)
	}
	tSpan := max(float64(tMax)-float64(tMin), 1)
	xPos := func(t sim.Time) float64 {
		return float64(marginL) + plotW*(float64(t)-float64(tMin))/tSpan
	}

	// Axis labels: min/mid/max ticks.
	tick := func(x, y float64, label, anchor string) {
		fmt.Fprintf(b, `<text x="%.0f" y="%.0f" font-family="sans-serif" font-size="11" text-anchor="%s">%s</text>`+"\n",
			x, y, anchor, escapeXML(label))
	}
	tick(float64(marginL), float64(opts.Height-marginB+16), fmt.Sprintf("%.0fs", tMin.Seconds()), "middle")
	tick(float64(marginL)+plotW, float64(opts.Height-marginB+16), fmt.Sprintf("%.0fs", tMax.Seconds()), "middle")
	tick(float64(marginL)-6, float64(marginT)+plotH, humanBytes(float64(yMin)), "end")
	tick(float64(marginL)-6, float64(marginT)+10, humanBytes(float64(yMax)), "end")
	if opts.XLabel != "" {
		tick(float64(marginL)+plotW/2, float64(opts.Height-marginB+32), opts.XLabel, "middle")
	}
	if opts.YLabel != "" {
		fmt.Fprintf(b, `<text x="14" y="%.0f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %.0f)">%s</text>`+"\n",
			float64(marginT)+plotH/2, float64(marginT)+plotH/2, escapeXML(opts.YLabel))
	}

	// Marks, appended without fmt: the two coordinates go through
	// appendFixed1 into a stack buffer, the rest is constant text.
	var num [64]byte
	for i := range tl.Len() {
		e := tl.event(i)
		b.WriteString(svgMarkStart)
		b.Write(appendFixed1(append(appendFixed1(num[:0], xPos(e.Start)), ' '), yPos(tl.y(e))))
		if e.Op == iotrace.OpWrite {
			b.WriteString(svgWriteMark)
		} else { // reads and async reads
			b.WriteString(svgReadMark)
		}
	}

	// Legend.
	lx := float64(marginL) + 6
	fmt.Fprintf(b, `<path d="M%.1f %.1f m0 -3 l3 3 l-3 3 l-3 -3 z" fill="none" stroke="#2c5f8a"/>`+"\n", lx, float64(marginT)-8)
	tick(lx+8, float64(marginT)-4, "read", "start")
	fmt.Fprintf(b, `<path d="M%.1f %.1f l3 3 m0 -3 l-3 3" stroke="#c0392b" transform="translate(-1.5,-1.5)"/>`+"\n", lx+50, float64(marginT)-8)
	tick(lx+58, float64(marginT)-4, "write", "start")

	b.WriteString("</svg>\n")
	return b.Bytes()
}

// svgSize bounds RenderSVG's output length, so its buffer is sized once.
// The document is the fixed frame (under 1.5 KB plus the escaped labels,
// each at most six bytes per input byte) and one mark per point: its start,
// two coordinates and the space between them, and its read or write body.
// Each coordinate lies between a margin and the far edge less the opposite
// margin, so "%.1f" prints at most the digits of the wider of the canvas and
// the left margin, a point and one decimal, plus a sign when the canvas is
// narrower or shorter than its margins and the coordinates go negative.
// opts carries RenderSVG's default Width and Height already.
func svgSize(tl Timeline, opts SVGOptions) int {
	n := 1536 + 6*(len(opts.Title)+len(opts.XLabel)+len(opts.YLabel))
	coord := decimalWidth(int64(max(opts.Width, opts.Height, marginL))) + 2
	if opts.Width < marginL+marginR || opts.Height < marginT+marginB {
		coord++
	}
	for i := range tl.Len() {
		n += len(svgMarkStart) + 2*coord + 1
		if tl.event(i).Op == iotrace.OpWrite {
			n += len(svgWriteMark)
		} else {
			n += len(svgReadMark)
		}
	}
	return n
}

// xmlEscaper escapes the five XML special characters.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;",
)

// escapeXML escapes the five XML special characters.
func escapeXML(s string) string { return xmlEscaper.Replace(s) }

// fixed1Limit bounds the values appendFixed1 formats with integer
// arithmetic. Below it v*10 < 2^31, so the product carries a rounding error
// of at most 2^-22 (about 2.4e-7), well inside the 1e-6 tie guard.
const fixed1Limit = 1 << 27

// appendFixed1 appends v with one decimal, byte for byte what fmt's "%.1f"
// prints. The fast path rounds v*10 to the nearest integer. Within 1e-6 of
// a rounding tie, where the product's own rounding could pick the wrong
// side, and for negative, non-finite or out-of-range values it defers to
// strconv, which rounds the exact binary value.
func appendFixed1(b []byte, v float64) []byte {
	if !(v >= 0 && v < fixed1Limit) || math.Signbit(v) {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	r := v * 10
	n := math.Floor(r)
	f := r - n
	if math.Abs(f-0.5) < 1e-6 {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	if f > 0.5 {
		n++
	}
	d := int64(n)
	b = strconv.AppendInt(b, d/10, 10)
	return append(b, '.', byte('0'+d%10))
}
