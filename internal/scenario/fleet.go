package scenario

import (
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Fleet is the realized machine shape a fleet_gen section expands to.
type Fleet struct {
	ComputeNodes int
	IONodes      int

	// Nodes is the per-I/O-node configuration (empty for a homogeneous
	// fleet); Assignment names each node's template.
	Nodes      []pfs.NodeConfig
	Assignment []string

	// BurstPerNode is the per-compute-node burst-log capacity drawn from the
	// templates (empty when no template sets burst_mb).
	BurstPerNode []int64

	// Startup is the bring-up schedule: one IONodeOutage per node that comes
	// online after t=0, holding it down until its start instant.
	Startup []fault.Event
}

// Zones returns the fleet's per-node outage domains (all zero when
// homogeneous).
func (f *Fleet) Zones() []int {
	z := make([]int, f.IONodes)
	for i, n := range f.Nodes {
		z[i] = n.Zone
	}
	return z
}

// Seed-stream tags: each random aspect of fleet expansion draws from its own
// substream, so adding jitter to a scenario does not reshuffle its templates.
const (
	seedTemplates = 0x466c6565 // "Flee"
	seedBurst     = 0x42757273 // "Burs"
	seedStartup   = 0x53746172 // "Star"
)

// expandFleet realizes the fleet_gen section against the study's base shape:
// baseCompute/baseIO are the scale defaults, baseDisk the application's
// calibrated array model that templates override field by field.
func expandFleet(s *Scenario, baseCompute, baseIO int, baseDisk disk.ArrayConfig) (*Fleet, error) {
	f := &Fleet{ComputeNodes: baseCompute, IONodes: baseIO}
	fg := s.FleetGen
	if fg == nil {
		return f, nil
	}
	if fg.ComputeNodes > 0 {
		f.ComputeNodes = fg.ComputeNodes
	}
	if fg.IONodes > 0 {
		f.IONodes = fg.IONodes
	}

	if len(fg.Templates) > 0 {
		counts, err := apportion(fg.Templates, f.IONodes)
		if err != nil {
			return nil, err
		}
		// Lay the templates out deterministically, then a seeded shuffle
		// interleaves them so zones and disk speeds are not index-clustered.
		order := make([]int, 0, f.IONodes)
		for ti, n := range counts {
			for k := 0; k < n; k++ {
				order = append(order, ti)
			}
		}
		shuffle(order, sim.NewRNG(s.Seed^seedTemplates))
		f.Nodes = make([]pfs.NodeConfig, f.IONodes)
		f.Assignment = make([]string, f.IONodes)
		for i, ti := range order {
			f.Nodes[i] = nodeFromTemplate(fg.Templates[ti], baseDisk)
			f.Assignment[i] = fg.Templates[ti].Name
		}

		// Compute-node burst logs draw from the same weighted template pool
		// (their own substream, so fleets with and without the burst tier
		// share an I/O-node layout).
		if s.burstEnabled() && anyBurst(fg.Templates) {
			rng := sim.NewRNG(s.Seed ^ seedBurst)
			f.BurstPerNode = make([]int64, f.ComputeNodes)
			for i := range f.BurstPerNode {
				t := fg.Templates[drawWeighted(fg.Templates, rng)]
				f.BurstPerNode[i] = int64(t.BurstMB * float64(1<<20))
			}
		}
	}

	f.Startup = startupEvents(fg.Startup, f.IONodes, s.Seed)
	return f, nil
}

// nodeFromTemplate builds one node's override config. Zero template fields
// leave the corresponding override unset, keeping the fleet default.
func nodeFromTemplate(t Template, baseDisk disk.ArrayConfig) pfs.NodeConfig {
	n := pfs.NodeConfig{Template: t.Name, Zone: t.Zone}
	if t.DiskMBs > 0 || t.PositionMs > 0 || t.DiskStreams > 0 {
		d := baseDisk
		if t.DiskMBs > 0 {
			d.BWBytesPerS = t.DiskMBs * 1e6
		}
		if t.PositionMs > 0 {
			d.Position = sim.FromSeconds(t.PositionMs / 1e3)
		}
		if t.DiskStreams > 0 {
			d.StreamCache = t.DiskStreams
		}
		n.Disk = &d
	}
	if t.CacheMB > 0 {
		n.CacheBytes = int64(t.CacheMB * float64(1<<20))
	}
	return n
}

// apportion assigns ioNodes across the templates: exact counts first, the
// remainder split by weight with largest-remainder rounding (a template with
// neither count nor weight gets weight 1).
func apportion(ts []Template, ioNodes int) ([]int, error) {
	counts := make([]int, len(ts))
	rest := ioNodes
	var totalW float64
	for i, t := range ts {
		if t.Count > 0 {
			counts[i] = t.Count
			rest -= t.Count
		} else {
			totalW += effWeight(t)
		}
	}
	if rest < 0 {
		return nil, fmt.Errorf("fleet_gen: template counts pin %d nodes but the fleet has %d I/O nodes", ioNodes-rest, ioNodes)
	}
	if rest > 0 && totalW == 0 {
		return nil, fmt.Errorf("fleet_gen: %d I/O nodes left over after fixed-count templates; add a weighted template to absorb them", rest)
	}
	if rest == 0 {
		return counts, nil
	}
	type frac struct {
		idx int
		f   float64
	}
	var fracs []frac
	assigned := 0
	for i, t := range ts {
		if t.Count > 0 {
			continue
		}
		share := float64(rest) * effWeight(t) / totalW
		whole := int(math.Floor(share))
		counts[i] += whole
		assigned += whole
		fracs = append(fracs, frac{i, share - float64(whole)})
	}
	// Hand the rounding leftovers to the largest fractional parts, earlier
	// templates first on ties — fully deterministic.
	for assigned < rest {
		best := -1
		for j, fr := range fracs {
			if best < 0 || fr.f > fracs[best].f {
				best = j
			}
		}
		counts[fracs[best].idx]++
		fracs[best].f = -1
		assigned++
	}
	return counts, nil
}

func effWeight(t Template) float64 {
	if t.Count > 0 {
		return 0
	}
	if t.Weight > 0 {
		return t.Weight
	}
	return 1
}

func anyBurst(ts []Template) bool {
	for _, t := range ts {
		if t.BurstMB > 0 {
			return true
		}
	}
	return false
}

// drawWeighted picks a template index by weight (counts act as weights here,
// so a count-pinned flavor is proportionally represented among compute nodes).
func drawWeighted(ts []Template, rng *sim.RNG) int {
	var total float64
	for _, t := range ts {
		total += drawWeight(t)
	}
	x := rng.Float64() * total
	for i, t := range ts {
		x -= drawWeight(t)
		if x < 0 {
			return i
		}
	}
	return len(ts) - 1
}

func drawWeight(t Template) float64 {
	if t.Count > 0 {
		return float64(t.Count)
	}
	if t.Weight > 0 {
		return t.Weight
	}
	return 1
}

// shuffle is a seeded Fisher-Yates.
func shuffle(order []int, rng *sim.RNG) {
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// startupEvents realizes a bring-up pattern as hold-down outages: node i is
// out from t=0 until its online instant. Node 0 always starts online so the
// fleet is never entirely dark.
func startupEvents(st *Startup, ioNodes int, seed uint64) []fault.Event {
	if st == nil || st.Pattern == "" || st.Pattern == "instant" || ioNodes < 2 {
		return nil
	}
	over := st.OverS
	if over <= 0 {
		over = 2
	}
	rng := sim.NewRNG(seed ^ seedStartup)
	var out []fault.Event
	for i := 0; i < ioNodes; i++ {
		frac := float64(i) / float64(ioNodes-1)
		var t float64
		switch st.Pattern {
		case "linear":
			t = over * frac
		case "exponential":
			// Early nodes race up, the tail straggles: 2^(k·f) growth
			// normalized to [0, over] with k=3 (an 8x head-to-tail spread).
			const k = 3
			t = over * (math.Exp2(k*frac) - 1) / (math.Exp2(k) - 1)
		case "wave":
			waves := st.Waves
			if waves <= 0 {
				waves = 4
			}
			if waves > 1 {
				batch := i * waves / ioNodes
				t = over * float64(batch) / float64(waves-1)
			}
		}
		if st.JitterFrac > 0 {
			// Jitter is drawn for every node in index order so the stream
			// stays aligned across patterns; node 0 discards its draw.
			j := rng.Float64() * st.JitterFrac * over
			if i > 0 {
				t += j
			}
		}
		if t <= 0 {
			continue
		}
		out = append(out, fault.Event{
			Kind:     fault.IONodeOutage,
			At:       0,
			Node:     i,
			Duration: sim.FromSeconds(t),
		})
	}
	return out
}
