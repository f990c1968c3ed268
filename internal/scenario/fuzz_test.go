package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseScenario hammers the YAML/JSON front door: whatever the input,
// Parse must return cleanly or error — never panic — and anything it accepts
// must satisfy its own Validate.
func FuzzParseScenario(f *testing.F) {
	// Seed with the checked-in corpus plus targeted edge shapes.
	for _, name := range []string{"full.yaml", "minimal.yaml", "scenario.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("workload:\n  app: escat\nchaos:\n  events:\n    - kind: disk-failure\n      at_s: 1\n      node: any\n"))
	f.Add([]byte(`{"workload":{"app":"escat"},"seed":18446744073709551615}`))
	f.Add([]byte(`{"workload":{"app":"escat"},"chaos":{"events":[{"kind":"disk-failure","at_s":2,"node":0}],` +
		`"cascades":[{"kind":"ionode-outage","at_s":4.2,"nodes":16,"first_node":0,"duration_s":1.2}]}}`))
	f.Add([]byte("a: [1, \"two\", 3.5]\n"))
	// Every number type the YAML tree holds: integers as json.Number up to
	// uint64 (signed and zero-padded ones normalized), float64 past it.
	f.Add([]byte("workload:\n  app: escat\nseed: 18446744073709551615\n"))
	f.Add([]byte("workload:\n  app: escat\nseed: +007\nchaos:\n  events:\n    - kind: disk-failure\n      at_s: -0\n      node: 3\n"))
	f.Add([]byte("workload:\n  app: escat\nseed: 99999999999999999999999\n"))
	f.Add([]byte("workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: false\nvariants:\n" +
		"  - name: placed\n    features:\n      failover:\n        enabled: true\n        placement_seed: 9007199254740993\n"))
	f.Add([]byte("\t"))
	f.Add([]byte("- 1\n- 2\n"))
	f.Add([]byte("key: \"unterminated\n"))
	f.Add([]byte("a:\n  - b: 1\n    c: 2\n"))
	f.Add([]byte("{"))
	f.Add([]byte("workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: false\nvariants:\n" +
		"  - name: cached\n    features:\n      cache:\n        enabled: true\n" +
		"  - name: render\n    workload:\n      app: render\n    run:\n      ckpt_interval: 0\n"))
	f.Add([]byte(`{"workload":{"app":"synthetic","synthetic":{"mode":"M_RECORD","nodes":8,` +
		`"record_bytes":4096,"records":32,"barrier":true}},"variants":[{"name":"coll",` +
		`"features":{"collective":{"enabled":true}}},{"name":"sync","workload":{"synthetic":{"mode":"M_SYNC"}}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, "fuzz.yaml")
		if err != nil {
			return
		}
		// Accepted scenarios must be internally consistent and re-validate.
		if s.Name == "" {
			t.Fatal("accepted scenario with empty name")
		}
		for _, v := range append([]*Scenario{s}, s.Variants...) {
			if err := v.Validate(); err != nil {
				t.Fatalf("accepted scenario %s fails its own Validate: %v", v.Name, err)
			}
			if v != s && (v.Variants != nil || !strings.HasPrefix(v.Name, s.Name+"/")) {
				t.Fatalf("variant %s of %s: not a plain scenario of that name", v.Name, s.Name)
			}
		}
	})
}
