package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// worsening is how far cur is on the wrong side of base, as a share of
// base; negative when cur is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == higher {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// judge gives the verdict for one metric. The median decides, unless
// the repetitions cannot carry the decision: a median past the bound
// whose min–max range still overlaps the baseline's, or a median within
// the bound whose own range is wider than the bound, is unresolved — not
// a pass — unless every repetition of the new side beats every
// repetition of the baseline.
func judge(base, cur metricSummary) string {
	bound := base.Bound
	overlap := cur.Min <= base.Max && base.Min <= cur.Max
	if worsening(base.Median, cur.Median, base.Better) > bound {
		if overlap {
			return verdictUnresolved
		}
		return verdictWorse
	}
	allBetter := cur.Max < base.Min
	if base.Better == higher {
		allBetter = cur.Min > base.Max
	}
	spread := func(m metricSummary) float64 {
		if m.Median == 0 {
			return 0
		}
		return (m.Max - m.Min) / m.Median
	}
	if !allBetter && (spread(base) > bound || spread(cur) > bound) {
		return verdictUnresolved
	}
	return verdictOK
}

// compareFiles prints one row per workload x end-to-end metric of two
// suite results and reports whether any row is worse.
func compareFiles(w io.Writer, basePath, curPath string) (worse bool, err error) {
	base, err := loadSuite(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadSuite(curPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (%s)  new %s (%s)\n", base.Meta.Commit, basePath, cur.Meta.Commit, curPath)
	fmt.Fprintf(w, "%-11s %-16s %-6s %14s %14s %22s %7s  %s\n", "workload", "metric", "unit", "base median", "new median", "new/base", "bound", "verdict")
	for _, wl := range workloads {
		bw, cw := base.Workloads[wl.name], cur.Workloads[wl.name]
		if bw == nil || cw == nil {
			fmt.Fprintf(w, "%-11s missing from one side\n", wl.name)
			continue
		}
		for _, d := range endToEndDefs {
			bm, ok1 := bw.EndToEnd[d.name]
			cm, ok2 := cw.EndToEnd[d.name]
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-11s %-16s missing from one side\n", wl.name, d.name)
				continue
			}
			v := judge(bm, cm)
			worse = worse || v == verdictWorse
			ratio := "-"
			if bm.Median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", cm.Median/bm.Median, bm.Median)
			}
			fmt.Fprintf(w, "%-11s %-16s %-6s %14.4f %14.4f %22s %6.1f%%  %s\n",
				wl.name, d.name, d.unit, bm.Median, cm.Median, ratio, bm.Bound*100, v)
		}
		if cw.Failed > bw.Failed {
			fmt.Fprintf(w, "%-11s failed %d -> %d of %d  %s\n", wl.name, bw.Failed, cw.Failed, cw.Attempted, verdictWorse)
			worse = true
		}
	}
	return worse, nil
}
