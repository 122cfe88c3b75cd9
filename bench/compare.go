package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// gatedMetric is one metric entry of BENCHMARK.json; a per_layer entry
// has no bound.
type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []gatedMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads a -record file and groups the end-to-end runs'
// values, gated or not: workload → metric → one value per run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for _, set := range []map[string]metric{r.Gated, r.Info} {
			for name, m := range set {
				runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			}
		}
	}
	return runs, sc.Err()
}

// failRatio is the eighth end-to-end metric. BENCHMARK.json cannot name
// it — a metric listed there may never be 0, and this one is 0 on every
// sound commit — so a run carries it in its attempted and failed counts
// and its exit code, and -compare applies its bound of 0 from here.
var failRatio = gatedMetric{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0}

// absolute reports whether the metric's bound is a difference rather
// than a share of the old median: so it is for the ratios, which are
// already shares.
func (m gatedMetric) absolute() bool { return m.Unit == "ratio" }

// worse reports by how much the new median is worse than the old one
// (negative when it is better), in the terms of the metric's bound: as a
// difference for a ratio, as a share of the old median otherwise.
func worse(m gatedMetric, oldMed, newMed float64) float64 {
	d := newMed - oldMed
	if m.Better == "higher" {
		d = -d
	}
	if m.absolute() {
		return d
	}
	if oldMed == 0 {
		return 0
	}
	return d / oldMed
}

// noise is the distance between the quartiles of runs, in the terms of
// the metric's bound.
func noise(m gatedMetric, runs []float64) float64 {
	if m.absolute() {
		q1, q3 := quartiles(runs)
		return q3 - q1
	}
	return spread(runs)
}

// verdict applies one metric's bound to two sets of runs. When the runs
// of either side spread wider than the bound, a difference inside that
// spread cannot be told from noise and is reported as unresolved.
func verdict(m gatedMetric, oldRuns, newRuns []float64) string {
	w := worse(m, median(oldRuns), median(newRuns))
	switch {
	case w > m.Bound:
		return "REGRESSION"
	case max(noise(m, oldRuns), noise(m, newRuns)) > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareMain prints each workload × end-to-end metric in its own row,
// with both medians and the ratio with its base, and returns 1 if any
// row regressed beyond its bound. The client.* speed figures follow
// without a verdict: they have no bound.
func compareMain(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare [-spec BENCHMARK.json] old.ndjson new.ndjson")
		return 2
	}
	spec, err := loadSpec(specPath)
	var oldRuns, newRuns map[string]map[string][]float64
	if err == nil {
		oldRuns, err = loadRuns(args[0])
	}
	if err == nil {
		newRuns, err = loadRuns(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-12s %-27s %-6s %14s %14s  %-22s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "new/old or new-old", "bound", "verdict")
	metrics := append(append([]gatedMetric(nil), spec.EndToEnd...), failRatio)
	status := 0
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			o, n := oldRuns[wl.Name][m.Name], newRuns[wl.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Printf("%-12s %-27s %-6s %14s %14s  %-22s %6.3f  %s\n", wl.Name, m.Name, m.Unit, "-", "-", "-", m.Bound, "MISSING")
				status = 1
				continue
			}
			om, nm := median(o), median(n)
			v := verdict(m, o, n)
			if v == "REGRESSION" {
				status = 1
			}
			ratio := fmt.Sprintf("%+.6g (base %.6g)", nm-om, om)
			if !m.absolute() {
				ratio = fmt.Sprintf("%.4f (base %.6g)", nm/om, om)
			}
			fmt.Printf("%-12s %-27s %-6s %14.6g %14.6g  %-22s %6.3f  %s (runs %d/%d, %s better)\n",
				wl.Name, m.Name, m.Unit, om, nm, ratio, m.Bound, v, len(o), len(n), m.Better)
		}
		for _, m := range spec.PerLayer {
			o, n := oldRuns[wl.Name][m.Name], newRuns[wl.Name][m.Name]
			if !strings.HasPrefix(m.Name, "client.") || len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			fmt.Printf("%-12s %-27s %-6s %14.6g %14.6g  %-22s %6s  not gated (runs %d/%d, spread %.1f%%/%.1f%%, %s better)\n",
				wl.Name, m.Name, m.Unit, om, nm, fmt.Sprintf("%.4f (base %.6g)", nm/om, om), "-",
				len(o), len(n), 100*spread(o), 100*spread(n), m.Better)
		}
	}
	return status
}
