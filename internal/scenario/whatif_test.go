package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// runWhatIf executes a corpus file's base and variants and returns their
// results keyed by variant name ("" for the base).
func runWhatIf(t *testing.T, file string) map[string]*Result {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "scenarios", file+".yaml"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Result{}
	for _, sc := range append([]*Scenario{s}, s.Variants...) {
		res, err := sc.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass() {
			t.Errorf("%s: assertions failed: %+v", sc.Name, res.Checks)
		}
		out[strings.TrimPrefix(strings.TrimPrefix(sc.Name, s.Name), "/")] = res
	}
	return out
}

// meanReadMs is a run's mean read latency.
func meanReadMs(r *Result) float64 {
	_, ms := meanOpMs(r.Report, "Read", "AsynchRead")
	return ms
}

// TestWhatIfClaims checks what each what-if corpus file shows, a variant
// against its direct counterpart.
func TestWhatIfClaims(t *testing.T) {
	t.Run("whatif-cache", func(t *testing.T) {
		r := runWhatIf(t, "whatif-cache")
		// ESCAT's and HTF's read patterns are the ones the cache serves.
		for base, cached := range map[string]string{"": "cached", "htf": "htf-cached"} {
			if b, c := meanReadMs(r[base]), meanReadMs(r[cached]); c >= b {
				t.Errorf("%s: mean read latency %.3fms -> %.3fms, want a cut", cached, b, c)
			}
		}
	})
	t.Run("whatif-cache-modes", func(t *testing.T) {
		r := runWhatIf(t, "whatif-cache-modes")
		// The random-read control's working set dwarfs the cache: it hits
		// nothing and its latency does not move.
		ctl := r["random-read-cached"]
		red := 1 - meanReadMs(ctl)/meanReadMs(r["random-read"])
		if ctl.M.CacheHitRatio > 0.05 || red > 0.05 || red < -0.05 {
			t.Errorf("random control: hit ratio %.1f%%, latency moved %.1f%%; want ~0 and no significant change",
				100*ctl.M.CacheHitRatio, 100*red)
		}
	})
	t.Run("whatif-collective", func(t *testing.T) {
		r := runWhatIf(t, "whatif-collective")
		// ESCAT's reload aggregates; RENDER and HTF never meet a round
		// barrier, so nothing changes.
		if b, c := r[""].M, r["collective"].M; c.PhysRequests >= b.PhysRequests {
			t.Errorf("escat: physical requests %d -> %d, want a cut", b.PhysRequests, c.PhysRequests)
		}
		for _, app := range []string{"render", "htf"} {
			if b, c := r[app].M, r[app+"-collective"].M; b.PhysRequests != c.PhysRequests || b.MakespanS != c.MakespanS {
				t.Errorf("%s control moved: %+v -> %+v", app, b, c)
			}
		}
	})
	t.Run("whatif-collective-modes", func(t *testing.T) {
		r := runWhatIf(t, "whatif-collective-modes")
		r["M_UNIX"] = r[""]
		// Only the round-structured modes collapse, at least 5x and no
		// slower; every other mode passes through untouched.
		for _, mode := range []string{"M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_GLOBAL", "M_ASYNC"} {
			b, c := r[mode].M, r[mode+"-collective"].M
			st := r[mode+"-collective"].Report.Final.Collective
			if mode != "M_SYNC" && mode != "M_RECORD" {
				if b.PhysRequests != c.PhysRequests || st.Rounds != 0 {
					t.Errorf("%s control: %d -> %d physical requests, %d rounds", mode, b.PhysRequests, c.PhysRequests, st.Rounds)
				}
				continue
			}
			if red := float64(b.PhysRequests) / float64(c.PhysRequests); red < 5 || c.MakespanS > b.MakespanS {
				t.Errorf("%s: request reduction %.1fx, makespan %.3fs -> %.3fs; want >= 5x and no slower",
					mode, red, b.MakespanS, c.MakespanS)
			}
			if st.Rounds == 0 || st.FullRounds != st.Rounds {
				t.Errorf("%s: rounds %d full %d, want all full", mode, st.Rounds, st.FullRounds)
			}
		}
	})
	t.Run("whatif-burst", func(t *testing.T) {
		r := runWhatIf(t, "whatif-burst")
		// The tier absorbs every application's writes without slowing any,
		// and cuts the checkpoint stall of the two that checkpoint.
		for _, app := range []string{"", "render", "htf"} {
			tier := strings.TrimPrefix(app+"-burst", "-")
			d, b := r[app].Report, r[tier].Report
			if st := b.Final.Burst; st == nil || st.Stats.Committed == 0 || b.Wall > d.Wall {
				t.Errorf("%s: tier absorbed nothing or slowed the run (%v -> %v)", tier, d.Wall, b.Wall)
			}
			if app != "render" && b.Ckpt.Overhead >= d.Ckpt.Overhead {
				t.Errorf("%s: checkpoint stall not reduced: %v -> %v", tier, d.Ckpt.Overhead, b.Ckpt.Overhead)
			}
		}
	})
}
