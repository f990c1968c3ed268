package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// repoPackages are the repro/internal packages the benchmark reaches; all
// apps/* count as apps.
var repoPackages = []string{
	"analysis", "apps", "burst", "cache", "ckpt", "collective", "core",
	"disk", "exec", "fault", "integrity", "ionode", "iotrace", "mesh",
	"pablo", "pfs", "ppfs", "scenario", "sim", "stats", "workload",
}

// cpuLayers are the buckets CPU samples are attributed to: the repository
// packages, repo_other for a package added after this list, then four for
// stacks with no repository frame. Shares over them sum to 1.
var cpuLayers = append(slices.Clone(repoPackages),
	"repo_other", "runtime_sched", "runtime_gc", "bench", "runtime_other")

// profile is a CPU profile being written to a temporary file.
type profile struct{ f *os.File }

func startProfile() (*profile, error) {
	f, err := os.CreateTemp("", "bench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &profile{f}, nil
}

// stop ends the profile and returns each layer's share of its samples.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return bucketTraces(string(out))
}

// bucketTraces reads the output of `go tool pprof -traces` and returns each
// layer's share of the sampled CPU time. A sample goes to its innermost
// repro/internal frame; a stack with none goes to runtime_sched, runtime_gc,
// bench (the benchmark's own main package) or runtime_other.
func bucketTraces(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	var frames []string
	var value time.Duration
	flush := func() {
		if len(frames) > 0 {
			shares[layerOf(frames)] += value.Seconds()
			total += value.Seconds()
		}
		frames = nil
	}
	inTrace := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inTrace = true
		case !inTrace || strings.TrimSpace(line) == "":
		case len(frames) == 0:
			// "      10ms   runtime.mallocgc": the sample value, then the leaf.
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %w", err)
			}
			value = d
			frames = append(frames, f[1])
		default:
			frames = append(frames, strings.Fields(line)[0])
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf names the layer a stack, leaf first, is charged to.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(repoPackages, rest[:i]) {
				return rest[:i]
			}
			return "repo_other"
		}
	}
	has := func(names ...string) bool {
		for _, f := range frames {
			for _, n := range names {
				if f == "runtime."+n {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("mcall", "park_m", "schedule", "findRunnable"):
		return "runtime_sched"
	case has("gcBgMarkWorker"):
		return "runtime_gc"
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime_other"
}
