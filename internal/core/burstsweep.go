package core

import (
	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/ckpt"
)

// BurstSweep runs each of the paper's three applications twice — writing
// straight to the PFS, then through the burst tier — under the same
// checkpoint policy, and reports the makespan and checkpoint-stall changes.
// ESCAT and HTF checkpoint their work loops, producing exactly the bursty
// write traffic the tier absorbs; RENDER has no checkpointer, so its output
// files are routed through the log by name prefix and its row isolates the
// tier's effect on ordinary output writes.
func BurstSweep(small bool, ck ckpt.Config, bcfg burst.Config) ([]analysis.BurstComparison, error) {
	bcfg.Enabled = true
	apps := Apps()
	pairs, err := runPairs("burst sweep", [2]string{"direct", "burst"}, apps,
		func(app AppID, withTier bool) (*ResilientReport, error) {
			rs := ResilientStudy{Study: sweepStudy(app, small), Ckpt: ck, MaxAttempts: 1}
			_, ckpts := rs.App.WithCkpt(nil)
			if !ckpts {
				rs.Ckpt.Interval = 0
			}
			if withTier {
				rs.Burst = bcfg
				if !ckpts {
					rs.Burst.Prefixes = append(rs.App.OutputPrefixes(), bcfg.Prefixes...)
				}
			}
			return RunResilient(rs)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.BurstComparison, 0, len(apps))
	for i, app := range apps {
		direct, withTier := pairs[i][0], pairs[i][1]
		rows = append(rows, analysis.BurstComparison{
			Name:        string(app),
			DirectWall:  direct.Wall,
			BurstWall:   withTier.Wall,
			DirectStall: direct.Ckpt.Overhead,
			BurstStall:  withTier.Ckpt.Overhead,
			Report:      withTier.Final.Burst,
		})
	}
	return rows, nil
}
