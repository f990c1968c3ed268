package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/workload"
)

const variantsBase = `name: base
workload:
  app: escat
features:
  failover:
    enabled: false
run:
  ckpt_interval: 0
assertions:
  expected: ok
`

// TestVariantsMergeOverBase: a variant's sections merge key by key into the
// base's, so setting features.cache keeps the base's failover section, and
// each variant is the complete scenario named <name>/<variant>.
func TestVariantsMergeOverBase(t *testing.T) {
	s, err := Parse([]byte(variantsBase+`variants:
  - name: cached
    features:
      cache:
        enabled: true
    assertions:
      min_cache_hit_ratio: 0.5
`), "v.yaml")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse([]byte(`{"name": "base/cached", "workload": {"app": "escat"},
		"features": {"failover": {"enabled": false}, "cache": {"enabled": true}},
		"run": {"ckpt_interval": 0}, "assertions": {"expected": "ok", "min_cache_hit_ratio": 0.5}}`), "v.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "base" || s.Features.Cache != nil || len(s.Variants) != 1 || !reflect.DeepEqual(s.Variants[0], want) {
		t.Fatalf("base %+v, variants %+v; want one variant %+v", s, s.Variants, want)
	}
	if plain, err := Parse([]byte(variantsBase), ""); err != nil || plain.Variants != nil {
		t.Errorf("a file without variants: %v, %d variants", err, len(plain.Variants))
	}
}

// TestMergePatch: RFC 7386 — objects merge key by key, lists and scalars
// replace, null deletes.
func TestMergePatch(t *testing.T) {
	target := map[string]any{"list": []any{1.0, 2.0}, "gone": "x",
		"obj": map[string]any{"keep": true, "drop": 1.0, "set": "a"}}
	patch := map[string]any{"list": []any{4.0}, "gone": nil, "add": map[string]any{"k": 1.0},
		"obj": map[string]any{"drop": nil, "set": "b", "new": 2.0}}
	want := map[string]any{"list": []any{4.0}, "add": map[string]any{"k": 1.0},
		"obj": map[string]any{"keep": true, "set": "b", "new": 2.0}}
	if got := mergePatch(target, patch); !reflect.DeepEqual(got, want) {
		t.Errorf("mergePatch:\n got %v\nwant %v", got, want)
	}
}

func TestVariantErrors(t *testing.T) {
	cases := []struct{ name, variants, wantSub string }{
		{"empty name", "  - features:\n      cache:\n        enabled: true\n", "variants[0] needs a name"},
		{"duplicate name", "  - name: a\n  - name: a\n", `variants[1]: duplicate variant name "base/a"`},
		{"nested variants", "  - name: a\n    variants:\n      - name: b\n", `variants[0]: unknown field "variants"`},
		{"unpatchable section", "  - name: a\n    chaos:\n      corrupt:\n        classes: all\n", `variants[0]: unknown field "chaos"`},
		{"unknown field", "  - name: a\n  - name: turbo\n    features:\n      cache:\n        enabled: true\n        turbo: 1\n", `variants[1] (turbo): schema: unknown field "turbo"`},
		{"bad value", "  - name: neg\n    features:\n      cache:\n        enabled: true\n        mb: -1\n", "variants[0] (neg): features.cache.mb -1 is negative"},
		{"bad app", "  - name: doom\n    workload:\n      app: doom\n", "variants[0] (doom): workload.app"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(variantsBase+"variants:\n"+tc.variants), "")
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantSub)
			}
		})
	}
}

// mustBuild parses and builds a scenario.
func mustBuild(t *testing.T, src string) core.ResilientStudy {
	t.Helper()
	s, err := Parse([]byte(src), "")
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSyntheticWorkload: workload.app synthetic builds the synthetic
// workload its section describes, without checkpoints.
func TestSyntheticWorkload(t *testing.T) {
	rs := mustBuild(t, `{"workload": {"app": "synthetic", "synthetic": {"mode": "M_ASYNC", "nodes": 4,
		"record_bytes": 65536, "records": 8, "read": true, "random": true, "seed": 42,
		"file_bytes": 1073741824, "barrier": true}}}`)
	want := workload.SyntheticConfig{
		Nodes: 4, Mode: iotrace.ModeAsync, RecordBytes: 65536, Records: 8,
		Read: true, Random: true, Seed: 42, FileBytes: 1 << 30, Barrier: true,
	}
	if rs.App != want || rs.Ckpt.Interval != 0 {
		t.Errorf("app config %+v checkpointing every %d units, want %+v without", rs.App, rs.Ckpt.Interval, want)
	}
}

// TestBurstRoutesOutputsWithoutCheckpoints: a run without checkpoints sends
// the application's output files through the burst log by name prefix
// (whatif-burst checks RENDER's frames are absorbed); ESCAT checkpointing at
// the default interval routes nothing by name.
func TestBurstRoutesOutputsWithoutCheckpoints(t *testing.T) {
	render := mustBuild(t, "workload:\n  app: render\nfeatures:\n  burst:\n    enabled: true\n")
	if want := render.App.OutputPrefixes(); len(want) == 0 || !reflect.DeepEqual(render.Burst.Prefixes, want) {
		t.Errorf("render: burst prefixes %q, want %q", render.Burst.Prefixes, want)
	}
	escat := mustBuild(t, "workload:\n  app: escat\nfeatures:\n  burst:\n    enabled: true\n")
	if escat.Ckpt.Interval != 2 || escat.Burst.Prefixes != nil {
		t.Errorf("escat: checkpoint interval %d, burst prefixes %q; want 2 and none", escat.Ckpt.Interval, escat.Burst.Prefixes)
	}
}
