package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke mode checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSmoke runs every workload at toy size in both modes and fails
// unless each run is correct and prints exactly the metrics, with the
// units, that BENCHMARK.json declares.
func runSmoke(specPath string, log io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Equal(names, workloadNames) {
		return fmt.Errorf("%s lists workloads %v, the benchmark runs %v", specPath, names, workloadNames)
	}
	if err := checkRecord(filepath.Join(filepath.Dir(specPath), "perfbench", "spec.json"), spec); err != nil {
		return err
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res, err := measure(name, 1, 300*time.Millisecond, traced, toySizes(), os.DevNull, log)
			if err != nil {
				return fmt.Errorf("%s (traced %v): %w", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s (traced %v): correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if err := sameMetrics(want, res.Metrics); err != nil {
				return fmt.Errorf("%s (traced %v): %w", name, traced, err)
			}
		}
	}
	fmt.Fprintln(log, "smoke: every workload ran in both modes and printed the metrics BENCHMARK.json declares")
	return nil
}

func sameMetrics(want map[string]string, got map[string]metric) error {
	var missing, extra []string
	for n, unit := range want {
		m, ok := got[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case m.Unit != unit:
			missing = append(missing, fmt.Sprintf("%s (unit %s, printed %s)", n, unit, m.Unit))
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("metrics differ from BENCHMARK.json: missing %v, undeclared %v", missing, extra)
}

// checkRecord keeps spec.json in step with BENCHMARK.json and the code:
// the same workloads, a module for every per-layer metric, and the
// reconciliation tolerance the traced run applies.
func checkRecord(path string, spec benchmarkSpec) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec struct {
		Tolerance float64                    `json:"reconcile_tolerance"`
		Workloads map[string]json.RawMessage `json:"workloads"`
		Modules   []struct {
			Metrics []string `json:"metrics"`
		} `json:"modules"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Tolerance != reconcileTolerance {
		return fmt.Errorf("%s: reconcile_tolerance %v, the traced run applies %v", path, rec.Tolerance, reconcileTolerance)
	}
	for _, name := range workloadNames {
		if _, ok := rec.Workloads[name]; !ok {
			return fmt.Errorf("%s: no record of workload %s", path, name)
		}
	}
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	got := map[string]metric{}
	for _, mod := range rec.Modules {
		for _, n := range mod.Metrics {
			got[n] = metric{Unit: want[n]}
		}
	}
	if err := sameMetrics(want, got); err != nil {
		return fmt.Errorf("%s modules: %w", path, err)
	}
	return nil
}
