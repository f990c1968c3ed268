package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// boundedMetric is one end-to-end metric as BENCHMARK.json defines it.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the base median it may worsen by
}

// compare prints, for every workload and end-to-end metric present in both
// -out files, the base and head medians, their ratio, the bound and a
// verdict.
func compare(defPath, basePath, headPath string, w io.Writer) error {
	data, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %9s %6s  %s\n",
		"workload", "metric", "base", "head", "head/base", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			b, h := base[wl.name][m.Name], head[wl.name][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-13s %-18s %12.6g %12.6g %9.4f %6.2f  %s\n", wl.name, m.Name,
				median(b), median(h), median(h)/median(b), m.Bound, verdict(b, h, m))
		}
	}
	return nil
}

// verdict judges head against base for one metric. It is unresolved when
// either side's quartile spread exceeds the bound; otherwise worse or
// better when the medians differ by more than the bound in that direction,
// and same when they do not.
func verdict(base, head []float64, m boundedMetric) string {
	if spread(base) > m.Bound || spread(head) > m.Bound {
		return "unresolved"
	}
	worsening := median(head)/median(base) - 1
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return "worse"
	case worsening < -m.Bound:
		return "better"
	}
	return "same"
}

// readRecords reads an -out file's untraced records, grouped as workload ->
// metric -> one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}
