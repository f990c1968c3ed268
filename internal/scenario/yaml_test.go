package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func mustYAML(t *testing.T, src string) any {
	t.Helper()
	v, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parseYAML(%q): %v", src, err)
	}
	return v
}

func TestYAMLScalars(t *testing.T) {
	got := mustYAML(t, `
a: 1
b: 2.5
c: true
d: null
e: hello world
f: "quoted: string"
g: 'single # quoted'
h: [1, 2, 3]
`)
	want := map[string]any{
		"a": json.Number("1"), "b": 2.5, "c": true, "d": nil,
		"e": "hello world", "f": "quoted: string", "g": "single # quoted",
		"h": []any{json.Number("1"), json.Number("2"), json.Number("3")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

func TestYAMLNesting(t *testing.T) {
	got := mustYAML(t, `
workload:
  app: escat
  scale: small
chaos:
  events:
    - kind: disk-failure
      at_s: 2
    - kind: latency-storm
      at_s: 3
      node: any
`)
	want := map[string]any{
		"workload": map[string]any{"app": "escat", "scale": "small"},
		"chaos": map[string]any{
			"events": []any{
				map[string]any{"kind": "disk-failure", "at_s": json.Number("2")},
				map[string]any{"kind": "latency-storm", "at_s": json.Number("3"), "node": "any"},
			},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

func TestYAMLComments(t *testing.T) {
	got := mustYAML(t, `
# leading comment
a: 1  # trailing comment
b: "kept # inside quotes"
`)
	want := map[string]any{"a": json.Number("1"), "b": "kept # inside quotes"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

func TestYAMLSequenceOfScalars(t *testing.T) {
	got := mustYAML(t, `
items:
  - one
  - two
`)
	want := map[string]any{"items": []any{"one", "two"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

// TestYAMLIntegersExact: a YAML integer decodes to the value the same
// number has in a JSON scenario, past float64's 2^53 and up to uint64's
// limit, in a base scenario and merged through a variant. A signed or
// zero-padded integer is normalized to a valid JSON literal, and one past
// uint64 is a float64 that no integer field takes.
func TestYAMLIntegersExact(t *testing.T) {
	for _, c := range []struct {
		yaml string
		want uint64
	}{
		{"9007199254740993", 9007199254740993},
		{"18446744073709551615", math.MaxUint64},
		{"+18446744073709551615", math.MaxUint64},
		{"+5", 5},
		{"007", 7},
		{"-0", 0},
	} {
		y, err := Parse([]byte("workload:\n  app: escat\nseed: "+c.yaml+"\n"), "")
		if err != nil {
			t.Fatalf("seed: %s: %v", c.yaml, err)
		}
		j, err := Parse([]byte(`{"workload": {"app": "escat"}, "seed": `+strconv.FormatUint(c.want, 10)+`}`), "")
		if err != nil {
			t.Fatal(err)
		}
		if y.Seed != c.want || j.Seed != c.want {
			t.Errorf("seed: %s: YAML %d, JSON %d, want %d", c.yaml, y.Seed, j.Seed, c.want)
		}
	}
	if _, err := Parse([]byte("workload:\n  app: escat\nseed: 18446744073709551616\n"), ""); err == nil {
		t.Error("seed: 18446744073709551616 parsed; want an out-of-range error")
	}
	s, err := Parse([]byte(variantsBase+`variants:
  - name: placed
    features:
      failover:
        enabled: true
        placement_seed: 9007199254740993
`), "v.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Variants[0].Features.Failover.PlacementSeed; got != 9007199254740993 {
		t.Errorf("variant placement_seed = %d, want 9007199254740993", got)
	}
	if got := mustYAML(t, "a: [-7, +7, 007, 1.5, 1e3]\n"); !reflect.DeepEqual(got, map[string]any{
		"a": []any{json.Number("-7"), json.Number("7"), json.Number("7"), 1.5, 1000.0}}) {
		t.Errorf("flow sequence of numbers: got %#v", got)
	}
}

func TestYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"tab indent", "a:\n\tb: 1\n", "tab"},
		{"duplicate key", "a: 1\na: 2\n", "duplicate"},
		{"anchor", "a: &x 1\n", ""},
		{"flow map", "a: {b: 1}\n", ""},
		{"block scalar", "a: |\n  text\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.src))
			if err == nil {
				t.Fatalf("parseYAML(%q): want error, got none", tc.src)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
