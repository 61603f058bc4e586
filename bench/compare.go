package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// resultSet is the runs found under one directory: metric values by
// workload and metric name, untraced and traced runs kept apart.
type resultSet struct {
	values    map[bool]map[string]map[string][]float64 // traced → workload → metric → one value per run
	incorrect []string                                 // files whose run reported correct=false
}

// loadResults reads every result file under dir, however deep: a set of
// runs is a directory of -out directories.
func loadResults(dir string) (*resultSet, error) {
	rs := &resultSet{values: map[bool]map[string]map[string][]float64{false: {}, true: {}}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil || res.Workload == "" {
			return nil // some other JSON file
		}
		if !res.Correct {
			rs.incorrect = append(rs.incorrect, path)
		}
		byMetric := rs.values[res.Traced][res.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			rs.values[res.Traced][res.Workload] = byMetric
		}
		for name, m := range res.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
		for name, m := range res.Info {
			byMetric[name] = append(byMetric[name], m.Value)
		}
		return nil
	})
	return rs, err
}

// worsening is how much worse b's median is than a's, as a share of a's.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / m
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict applies the rule of the choosing-metrics guide: a metric whose
// run-to-run spread is wider than its bound is unresolved, not unchanged,
// unless the runs of one side all beat the runs of the other.
func verdict(d metricDef, a, b []float64) string {
	worse := worsening(d, median(a), median(b))
	if max(spread(a), spread(b)) <= d.Bound {
		if worse > d.Bound {
			return "regressed"
		}
		return "ok"
	}
	switch {
	case allBetter(d, a, b):
		return "ok"
	case worse > d.Bound && allBetter(d, b, a):
		return "regressed"
	}
	return "unresolved"
}

// runCompare prints one row per workload and end-to-end metric, then one
// row per ungated and per-layer metric both sets hold, and reports whether
// a gated metric regressed.
func runCompare(w io.Writer, dirA, dirB string) (regressed bool, err error) {
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	row := func(workload string, d metricDef, va, vb []float64, verdict string) {
		a1, a3 := quartiles(va)
		b1, b3 := quartiles(vb)
		fmt.Fprintf(w, "%-14s %-26s %-6s A n=%-2d %12.4f [%12.4f %12.4f]  B n=%-2d %12.4f [%12.4f %12.4f]  %+7.2f%%  bound %4.0f%%  %s\n",
			workload, d.Name, d.Unit, len(va), median(va), a1, a3, len(vb), median(vb), b1, b3,
			100*worsening(d, median(va), median(vb)), 100*d.Bound, verdict)
	}
	fmt.Fprintf(w, "A = %s   B = %s   (median [q1 q3]; the percentage is how much worse B's median is)\n", dirA, dirB)
	rows := 0
	for _, spec := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[false][spec.Name][d.Name], b.values[false][spec.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			regressed = regressed || v == "regressed"
			row(spec.Name, d, va, vb, v)
			rows++
		}
	}
	// From here on nothing fails the comparison: the untraced runs' ungated
	// speed metrics, judged against the issue's bound, then the traced runs'
	// per-layer metrics, which have none.
	for traced, defs := range [][]metricDef{ungated, perLayer} {
		for _, spec := range workloads {
			for _, d := range defs {
				va, vb := a.values[traced == 1][spec.Name][d.Name], b.values[traced == 1][spec.Name][d.Name]
				if len(va) == 0 || len(vb) == 0 || median(va) == 0 && median(vb) == 0 {
					continue // no runs, or a layer the workload does not exercise
				}
				label := "info"
				if d.Bound > 0 {
					label = verdict(d, va, vb) + " (ungated)"
				}
				row(spec.Name, d, va, vb, label)
				rows++
			}
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("no workload has result files in both %s and %s", dirA, dirB)
	}
	for _, path := range b.incorrect {
		fmt.Fprintf(w, "incorrect run: %s\n", path)
		regressed = true
	}
	return regressed, nil
}
