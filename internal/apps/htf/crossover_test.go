package htf

import (
	"math"
	"strings"
	"testing"
)

func TestCrossoverModelBreakEven(t *testing.T) {
	m := DefaultCrossoverModel()
	be := m.BreakEvenRate()
	// §7.2: "approximately 5-10 Mbytes/second per node".
	if be < 5e6 || be > 10e6 {
		t.Fatalf("break-even %f MB/s, paper 5-10", be/1e6)
	}
	pts := m.Sweep([]float64{1e6, 3e6, be * 1.01, 20e6})
	if pts[0].ReadWins || pts[1].ReadWins {
		t.Fatal("slow I/O should lose to recomputation")
	}
	if !pts[2].ReadWins || !pts[3].ReadWins {
		t.Fatal("fast I/O should beat recomputation")
	}
	out := RenderSweep(pts)
	if !strings.Contains(out, "recompute") || !strings.Contains(out, "read") {
		t.Fatalf("sweep render:\n%s", out)
	}
	if math.Abs(m.RecomputeTime()-1e-5) > 1e-9 {
		t.Fatalf("recompute time %g, want 10 us", m.RecomputeTime())
	}
}
