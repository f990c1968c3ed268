// Package scenario implements the declarative scenario DSL: YAML/JSON files
// describing a generated (possibly heterogeneous) fleet, a workload, a chaos
// schedule bound to the fault-injection machinery, and first-class assertions
// — so every cache/integrity/collective/burst/resilience what-if is a
// versioned, validated, replayable regression test instead of a bespoke
// flag incantation.
//
// A scenario file has up to eight sections:
//
//	name: cache-whatif            # identity
//	description: ...
//	seed: 7                       # one seed drives fleet gen + fault draws
//	workload:  {app, scale, policy, window_s, synthetic}
//	fleet_gen: {compute_nodes, io_nodes, stripe_kb, templates, startup, cells, stagger_s}
//	features:  {cache, collective, sched, burst, integrity, reliability, failover}
//	chaos:     {window_s, events, exps, cascades, zone_outages, corrupt}
//	run:       {ckpt_interval, ckpt_bytes, restart_cost_s, max_attempts}
//	assertions: {expected, max_makespan_s, ...}
//	variants:  [{name, workload, features, run, assertions}, ...]
//
// Everything is optional except name and workload.app; an empty section
// selects the paper-faithful default, so the minimal scenario reproduces the
// flag-driven default run byte for byte. workload.app "synthetic" runs the
// one-shared-file workload its workload.synthetic section describes instead
// of one of the paper's applications.
//
// Each variants entry is a what-if over the file's own scenario: RFC 7386
// merge patches over its workload, features, run and assertions sections
// (objects merge key by key, scalars and lists replace, null deletes). A
// variant expands at parse time into an ordinary, fully validated scenario
// named <name>/<variant>.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed drives every random choice the scenario makes: fleet template
	// draws, startup jitter, and the fault plan's materialization. Same
	// file + same seed = identical run.
	Seed uint64 `json:"seed,omitempty"`

	Workload   Workload    `json:"workload"`
	FleetGen   *FleetGen   `json:"fleet_gen,omitempty"`
	Features   Features    `json:"features,omitempty"`
	Chaos      Chaos       `json:"chaos,omitempty"`
	Run        RunPolicy   `json:"run,omitempty"`
	Assertions *Assertions `json:"assertions,omitempty"`

	// Path is the source file, for error messages; empty when parsed from
	// memory.
	Path string `json:"-"`

	// Variants are the file's variants, expanded: each is a complete
	// scenario without variants of its own.
	Variants []*Scenario `json:"-"`

	// Shards is an execution parameter, not part of the file schema: the
	// CLI's -shards value bounding how many fleet cells run concurrently
	// (0 = GOMAXPROCS, 1 = one cell after another). Results are
	// byte-identical at every setting.
	Shards int `json:"-"`
}

// Workload selects the application, its scale, and the policy layer.
type Workload struct {
	App     string  `json:"app"`
	Scale   string  `json:"scale,omitempty"`    // "small" (default) or "paper"
	Policy  string  `json:"policy,omitempty"`   // "none" (default), "ppfs", "adaptive"
	WindowS float64 `json:"window_s,omitempty"` // time-window reduction width

	// Synthetic describes the workload when App is "synthetic".
	Synthetic *Synthetic `json:"synthetic,omitempty"`
}

// Synthetic mirrors workload.SyntheticConfig: every node moves Records
// records of RecordBytes each through one shared file under one PFS access
// mode (M_UNIX, M_LOG, M_SYNC, M_RECORD, M_GLOBAL or M_ASYNC).
type Synthetic struct {
	Mode        string `json:"mode"`
	Nodes       int    `json:"nodes"`
	RecordBytes int64  `json:"record_bytes"`
	Records     int    `json:"records"`
	Read        bool   `json:"read,omitempty"`       // reads of a preloaded file instead of writes
	Random      bool   `json:"random,omitempty"`     // seeded random record order (M_UNIX, M_ASYNC)
	Seed        uint64 `json:"seed,omitempty"`       // seeds the random order
	FileBytes   int64  `json:"file_bytes,omitempty"` // preloaded file size; 0 = the record layout's
	Barrier     bool   `json:"barrier,omitempty"`    // phase-align the nodes before the record loop
}

// FleetGen generates the machine shape from weighted node templates instead
// of the paper's fixed homogeneous 128/16 configuration.
type FleetGen struct {
	ComputeNodes int        `json:"compute_nodes,omitempty"` // 0 = application default
	IONodes      int        `json:"io_nodes,omitempty"`      // 0 = paper's 16
	StripeKB     float64    `json:"stripe_kb,omitempty"`     // 0 = paper's 64
	Templates    []Template `json:"templates,omitempty"`
	Startup      *Startup   `json:"startup,omitempty"`

	// Cells replicates the generated machine: a fleet of this many
	// independent cells, each a complete mesh + PFS + application instance
	// on its own engine, run concurrently. 0 or 1 keeps the single-machine
	// shape. Multi-cell scenarios run a single
	// attempt per cell (no checkpoint/restart loop), so ckpt_interval must
	// stay 0.
	Cells int `json:"cells,omitempty"`

	// StaggerS is the launch delay between consecutive cells, modeling a
	// fleet scheduler dispatching jobs in sequence (with cells > 1).
	StaggerS float64 `json:"stagger_s,omitempty"`
}

// Template is one weighted node flavor. Disk and cache fields shape the I/O
// nodes it generates; burst_mb shapes the compute-node burst logs when the
// burst feature is on. Zero-valued fields keep the fleet-wide default.
type Template struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight,omitempty"` // relative share (default 1)
	Count  int     `json:"count,omitempty"`  // exact node count (overrides weight)

	DiskMBs     float64 `json:"disk_mb_s,omitempty"`    // array bandwidth, MB/s
	PositionMs  float64 `json:"position_ms,omitempty"`  // seek+rotation time
	DiskStreams int     `json:"disk_streams,omitempty"` // sequential-stream buffers
	CacheMB     float64 `json:"cache_mb,omitempty"`     // per-node cache capacity
	BurstMB     float64 `json:"burst_mb,omitempty"`     // per-node burst-log capacity
	Zone        int     `json:"zone,omitempty"`         // outage domain
}

// Startup describes how the I/O nodes come online. Every pattern except
// "instant" holds late nodes in an outage from t=0 until their start instant,
// so a scenario exercises the failover path exactly as a rolling fleet
// bring-up would.
type Startup struct {
	Pattern    string  `json:"pattern"`               // instant, linear, exponential, wave
	OverS      float64 `json:"over_s,omitempty"`      // ramp length (default 2s)
	Waves      int     `json:"waves,omitempty"`       // batches for "wave" (default 4)
	JitterFrac float64 `json:"jitter_frac,omitempty"` // seeded per-node jitter, fraction of over_s
}

// Features toggles the optional subsystems. The CLIs' feature flags translate
// into this section (see internal/cliflags).
type Features struct {
	Cache       *CacheFeature       `json:"cache,omitempty"`
	Collective  *CollectiveFeature  `json:"collective,omitempty"`
	Sched       string              `json:"sched,omitempty"` // fcfs, cscan, sstf, random
	Burst       *BurstFeature       `json:"burst,omitempty"`
	Integrity   *IntegrityFeature   `json:"integrity,omitempty"`
	Reliability *ReliabilityFeature `json:"reliability,omitempty"`
	Failover    *FailoverFeature    `json:"failover,omitempty"`
}

// CacheFeature mirrors -cache/-cache-mb/-prefetch/-flush-on-fail.
type CacheFeature struct {
	Enabled     bool    `json:"enabled"`
	MB          float64 `json:"mb,omitempty"`
	Prefetch    *bool   `json:"prefetch,omitempty"` // default true
	FlushOnFail bool    `json:"flush_on_fail,omitempty"`
}

// CollectiveFeature mirrors -collective/-aggregators.
type CollectiveFeature struct {
	Enabled     bool `json:"enabled"`
	Aggregators int  `json:"aggregators,omitempty"`
}

// BurstFeature mirrors -burst/-burst-mb/-burst-drain/-compress.
type BurstFeature struct {
	Enabled  bool    `json:"enabled"`
	MB       float64 `json:"mb,omitempty"`
	DrainMBs float64 `json:"drain_mb_s,omitempty"`
	Compress float64 `json:"compress,omitempty"`
}

// IntegrityFeature mirrors -scrub and enables the checksum layer.
type IntegrityFeature struct {
	Enabled bool `json:"enabled"`
	Scrub   bool `json:"scrub,omitempty"`
}

// ReliabilityFeature mirrors -deadline/-retries.
type ReliabilityFeature struct {
	Enabled   bool    `json:"enabled"`
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Retries   int     `json:"retries,omitempty"`
}

// FailoverFeature mirrors -failover plus the N-way replication controls
// (-rf/-placement-seed/-read-policy and the repair daemon flags). A scenario
// without the section gets failover with factor 2.
type FailoverFeature struct {
	Enabled bool `json:"enabled"`

	// Factor is the replication factor, 1..4; 0 and 1 both mean one copy.
	// Replicas spread across the fleet templates' zones.
	Factor int `json:"factor,omitempty"`

	// PlacementSeed perturbs the within-zone order of the replica ring; 0
	// keeps index order (the legacy neighbour placement on one zone).
	PlacementSeed uint64 `json:"placement_seed,omitempty"`

	// ReadPolicy is primary-first (default), any-replica, or quorum.
	ReadPolicy string `json:"read_policy,omitempty"`

	// Repair enables the background repair control plane.
	Repair *RepairFeature `json:"repair,omitempty"`
}

// RepairFeature configures the replication repair daemon.
type RepairFeature struct {
	Enabled bool `json:"enabled"`

	// BandwidthMBs throttles repair traffic. Unset takes the 32 MB/s
	// default; an explicit 0 leaves repair unthrottled.
	BandwidthMBs *float64 `json:"bandwidth_mb_s,omitempty"`
	GiveUpS      float64  `json:"give_up_s,omitempty"` // 0 = never give up
}

// Chaos binds the existing fault machinery.
type Chaos struct {
	WindowS     float64        `json:"window_s,omitempty"` // corruption/scrub window (default 600)
	Events      []ChaosEvent   `json:"events,omitempty"`
	Exps        []ChaosExp     `json:"exps,omitempty"`
	Cascades    []ChaosCascade `json:"cascades,omitempty"`
	ZoneOutages []ZoneOutage   `json:"zone_outages,omitempty"`
	Corrupt     *Corrupt       `json:"corrupt,omitempty"`
}

// Empty reports whether the section schedules nothing.
func (c Chaos) Empty() bool {
	return len(c.Events) == 0 && len(c.Exps) == 0 && len(c.Cascades) == 0 &&
		len(c.ZoneOutages) == 0 && c.Corrupt == nil
}

// NodeRef targets a node: a concrete index, or "any" for a seeded random
// draw per failure (fault.AnyNode).
type NodeRef int

// UnmarshalJSON accepts a number or the string "any".
func (n *NodeRef) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if s == `"any"` || s == "-1" {
		*n = NodeRef(fault.AnyNode)
		return nil
	}
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("node must be an index or \"any\": %v", err)
	}
	*n = NodeRef(v)
	return nil
}

// MarshalJSON renders AnyNode back as "any".
func (n NodeRef) MarshalJSON() ([]byte, error) {
	if int(n) == fault.AnyNode {
		return []byte(`"any"`), nil
	}
	return json.Marshal(int(n))
}

// ChaosEvent is one scheduled fault (fault.Event with times in seconds).
type ChaosEvent struct {
	Kind      string  `json:"kind"`
	AtS       float64 `json:"at_s"`
	Node      NodeRef `json:"node"`
	DurationS float64 `json:"duration_s,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
}

// ChaosExp is a Poisson failure process (fault.Exp in seconds).
type ChaosExp struct {
	Kind         string  `json:"kind"`
	MeanBetweenS float64 `json:"mean_between_s"`
	StartS       float64 `json:"start_s,omitempty"`
	EndS         float64 `json:"end_s"`
	Node         NodeRef `json:"node"`
	DurationS    float64 `json:"duration_s,omitempty"`
	Factor       float64 `json:"factor,omitempty"`
}

// ChaosCascade is a correlated multi-node failure (fault.Cascade in seconds).
type ChaosCascade struct {
	Kind      string  `json:"kind"`
	AtS       float64 `json:"at_s"`
	Nodes     int     `json:"nodes"`
	FirstNode NodeRef `json:"first_node"`
	SpacingS  float64 `json:"spacing_s,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
}

// ZoneOutage fails every I/O node in one outage domain — the per-zone chaos
// the heterogeneous fleet templates define zones for. It expands to one
// event per member node, SpacingS apart in node order.
type ZoneOutage struct {
	Zone      int     `json:"zone"`
	AtS       float64 `json:"at_s"`
	DurationS float64 `json:"duration_s"`
	SpacingS  float64 `json:"spacing_s,omitempty"`
}

// Corrupt schedules silent data corruption; classes is a comma-separated
// list of bit-rot, torn-write, misdirected-write, or "all".
type Corrupt struct {
	Classes string `json:"classes"`
}

// RunPolicy is the resilience driver's configuration. The pointer fields
// distinguish "unset" (take the stress command's defaults: interval 2,
// restart cost 1.5 s) from an explicit zero.
type RunPolicy struct {
	CkptInterval *int     `json:"ckpt_interval,omitempty"` // 0 = no checkpoints
	CkptBytes    int64    `json:"ckpt_bytes,omitempty"`    // default 4096
	RestartCostS *float64 `json:"restart_cost_s,omitempty"`
	MaxAttempts  int      `json:"max_attempts,omitempty"` // default 8
}

// Assertions make a scenario an executable regression test: the run's
// verdict is PASS only when the outcome matches Expected and every bound
// holds. Zero-valued bounds are unchecked; the pointer bounds distinguish
// "unset" from "must be exactly zero".
type Assertions struct {
	// Expected classifies the run: "ok" (completed with no lost work),
	// "degraded" (completed, but attempts died, work or bytes were lost, or
	// corruption went unrepaired), or "failed" (did not complete).
	Expected string `json:"expected,omitempty"`

	MaxMakespanS float64 `json:"max_makespan_s,omitempty"`
	MinMakespanS float64 `json:"min_makespan_s,omitempty"`

	// MaxP95ReadMs bounds the 95th-percentile application-visible read
	// latency (read and async-read operations).
	MaxP95ReadMs float64 `json:"max_p95_read_ms,omitempty"`

	// MinCacheHitRatio bounds the fleet-wide demand hit ratio; requires the
	// cache feature.
	MinCacheHitRatio float64 `json:"min_cache_hit_ratio,omitempty"`

	// MaxLostBytes bounds burst-log bytes that died undrained (lost work a
	// node loss or failed attempt left in volatile logs).
	MaxLostBytes *int64 `json:"max_lost_bytes,omitempty"`

	// MaxFailedAttempts bounds restart-loop failures.
	MaxFailedAttempts *int `json:"max_failed_attempts,omitempty"`

	// MaxPhysRequests bounds the physical array request count (the quantity
	// caching and collective aggregation collapse).
	MaxPhysRequests int64 `json:"max_phys_requests,omitempty"`

	// MinRedundancy asserts the run ended with at least this many intact
	// copies of every chunk — it fails when the repair control plane left
	// replicas unrestored (abandoned or still queued). Requires failover
	// with a replication factor >= the bound.
	MinRedundancy *int `json:"min_redundancy,omitempty"`

	// MaxRepairTimeS bounds time-to-full-redundancy: how long after the
	// last outage ended the repair daemon needed to drain its ledger.
	MaxRepairTimeS float64 `json:"max_repair_time_s,omitempty"`
}

// file is the schema of a scenario file: a scenario plus its variants.
type file struct {
	Scenario
	Variants []json.RawMessage `json:"variants,omitempty"`
}

// Parse decodes a scenario from JSON or the YAML subset, detected by the
// first non-space byte, validates it structurally, and expands its variants.
func Parse(data []byte, path string) (*Scenario, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, loc(path, fmt.Errorf("empty scenario file"))
	}
	var jsonBytes []byte
	if trimmed[0] == '{' {
		jsonBytes = trimmed
	} else {
		tree, err := parseYAML(data)
		if err != nil {
			return nil, loc(path, err)
		}
		jsonBytes, err = json.Marshal(tree)
		if err != nil {
			return nil, loc(path, err)
		}
	}
	var f file
	if err := decodeStrict(jsonBytes, &f); err != nil {
		return nil, loc(path, fmt.Errorf("schema: %v", err))
	}
	s := &f.Scenario
	s.Path = path
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if err := s.Validate(); err != nil {
		return nil, loc(path, err)
	}
	for i, raw := range f.Variants {
		v, err := s.variant(i, jsonBytes, raw)
		if err != nil {
			return nil, loc(path, err)
		}
		for _, prev := range s.Variants {
			if prev.Name == v.Name {
				return nil, loc(path, fmt.Errorf("variants[%d]: duplicate variant name %q", i, v.Name))
			}
		}
		s.Variants = append(s.Variants, v)
	}
	return s, nil
}

// variantPatch is one variants entry: a name and the merge patches.
type variantPatch struct {
	Name       string          `json:"name"`
	Workload   json.RawMessage `json:"workload,omitempty"`
	Features   json.RawMessage `json:"features,omitempty"`
	Run        json.RawMessage `json:"run,omitempty"`
	Assertions json.RawMessage `json:"assertions,omitempty"`
}

// variant expands variants entry i over the file's JSON form: the base
// scenario with the entry's sections merge-patched in, named
// <name>/<variant>, decoded and validated like any scenario.
func (s *Scenario) variant(i int, base, raw []byte) (*Scenario, error) {
	var vp variantPatch
	if err := decodeStrict(raw, &vp); err != nil {
		return nil, fmt.Errorf("variants[%d]: %v; a variant patches only workload, features, run and assertions", i, err)
	}
	if vp.Name == "" {
		return nil, fmt.Errorf("variants[%d] needs a name", i)
	}
	tree, err := decodeTree(base)
	if err != nil {
		return nil, err
	}
	patch, err := decodeTree(raw)
	if err != nil {
		return nil, err
	}
	delete(tree, "variants")
	delete(patch, "name")
	tree = mergePatch(tree, patch).(map[string]any)
	tree["name"] = s.Name + "/" + vp.Name
	data, err := json.Marshal(tree)
	if err != nil {
		return nil, err
	}
	v := &Scenario{Path: s.Path}
	if err := decodeStrict(data, v); err != nil {
		return nil, fmt.Errorf("variants[%d] (%s): schema: %v", i, vp.Name, err)
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("variants[%d] (%s): %v", i, vp.Name, err)
	}
	return v, nil
}

// decodeTree decodes a JSON object into a generic tree, keeping numbers
// exact.
func decodeTree(data []byte) (map[string]any, error) {
	var tree map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	err := dec.Decode(&tree)
	return tree, err
}

// mergePatch applies an RFC 7386 merge patch to target: a patch object
// merges into the target key by key (a null value deletes the key), any
// other patch value replaces the target. target is modified in place.
func mergePatch(target, patch any) any {
	p, ok := patch.(map[string]any)
	if !ok {
		return patch
	}
	t, ok := target.(map[string]any)
	if !ok {
		t = map[string]any{}
	}
	for k, v := range p {
		if v == nil {
			delete(t, k)
		} else {
			t[k] = mergePatch(t[k], v)
		}
	}
	return t
}

// decodeStrict decodes JSON into v, rejecting fields v does not have.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return friendlyDecodeError(err)
	}
	return nil
}

// Load reads and parses one scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data, path)
}

func loc(path string, err error) error {
	if path == "" {
		return err
	}
	return fmt.Errorf("%s: %w", path, err)
}

// friendlyDecodeError rewrites encoding/json's strict-mode errors into
// scenario-speak.
func friendlyDecodeError(err error) error {
	msg := err.Error()
	if strings.HasPrefix(msg, "json: unknown field ") {
		return fmt.Errorf("unknown field %s (check the section it is nested under)",
			strings.TrimPrefix(msg, "json: unknown field "))
	}
	return err
}
