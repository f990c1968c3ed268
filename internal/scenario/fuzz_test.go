package scenario

import (
	"os"
	"path/filepath"
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
	f.Add([]byte("\t"))
	f.Add([]byte("- 1\n- 2\n"))
	f.Add([]byte("key: \"unterminated\n"))
	f.Add([]byte("a:\n  - b: 1\n    c: 2\n"))
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, "fuzz.yaml")
		if err != nil {
			return
		}
		// Accepted scenarios must be internally consistent and re-validate.
		if s.Name == "" {
			t.Fatal("accepted scenario with empty name")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted scenario fails its own Validate: %v", err)
		}
	})
}
