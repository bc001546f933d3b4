//go:build ignore

// abtable turns the result lines scripts/abpairs.sh collected into
// EXPERIMENTS.md's tables and holds them to BENCHMARK.json's bounds.
//
//	go run scripts/abtable.go BENCHMARK.json -workloads   # names, one per line
//	go run scripts/abtable.go BENCHMARK.json DIR          # DIR/<side>.<workload>.<seed>.json, result on the last line
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchmark struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// result is the last stdout line of one bench/run.sh run.
type result struct {
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: abtable BENCHMARK.json (-workloads | DIR)")
		os.Exit(2)
	}
	var b benchmark
	raw, err := os.ReadFile(os.Args[1])
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abtable:", err)
		os.Exit(2)
	}
	if os.Args[2] == "-workloads" {
		for _, w := range b.Workloads {
			fmt.Println(w.Name)
		}
		return
	}
	bad := false
	for _, w := range b.Workloads {
		if !table(b, os.Args[2], w.Name) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// load reads one side's runs of a workload, in seed order. A run that left
// no result line counts as one attempted, failed operation.
func load(dir, side, workload string) map[string]result {
	runs := map[string]result{}
	paths, _ := filepath.Glob(filepath.Join(dir, side+"."+workload+".*.json"))
	for _, p := range paths {
		seed := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), side+"."+workload+"."), ".json")
		var r result
		raw, _ := os.ReadFile(p)
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || r.Metrics == nil {
			r = result{Attempted: 1, Failed: 1}
		}
		runs[seed] = r
	}
	return runs
}

// table prints one workload's table and reports whether the change stayed
// inside every bound.
func table(b benchmark, dir, workload string) bool {
	base, head := load(dir, "base", workload), load(dir, "head", workload)
	var seeds []string
	for s := range base {
		if _, ok := head[s]; ok {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return true
	}
	sort.Strings(seeds)
	ok := true
	var att, fail [2]int
	for _, s := range seeds {
		att[0], fail[0] = att[0]+base[s].Attempted, fail[0]+base[s].Failed
		att[1], fail[1] = att[1]+head[s].Attempted, fail[1]+head[s].Failed
	}
	fmt.Printf("**`%s`** — %d pairs, failed operations: parent %d of %d, change %d of %d\n\n",
		workload, len(seeds), fail[0], att[0], fail[1], att[1])
	if fail[1]*att[0] > fail[0]*att[1] {
		fmt.Printf("REGRESSION: a larger share of operations failed with the change.\n\n")
		ok = false
	}
	fmt.Println("| metric | parent median [Q1, Q3] | change median [Q1, Q3] | Δ median | wins (change better / pairs) |")
	fmt.Println("|---|---|---|---|---|")
	var verdicts []string
	for _, m := range b.EndToEnd {
		var p, c []float64
		wins, equal := 0, 0
		for _, s := range seeds {
			pv, cv := base[s].Metrics[m.Name].Value, head[s].Metrics[m.Name].Value
			p, c = append(p, pv), append(c, cv)
			switch {
			case pv == cv:
				equal++
			case (cv < pv) == (m.Better == "lower"):
				wins++
			}
		}
		if m.Unit == "count" && equal == len(seeds) {
			fmt.Printf("| `%s` | %.0f | %.0f | equal on %d of %d seeds | — |\n", m.Name, quantile(p, 0.5), quantile(c, 0.5), equal, len(seeds))
			continue
		}
		pm, cm := quantile(p, 0.5), quantile(c, 0.5)
		delta := (cm - pm) / pm
		iqr := (quantile(p, 0.75) - quantile(p, 0.25)) / pm
		fmt.Printf("| `%s` | %s | %s | %+.1f %% (parent IQR %.1f %%, bound %.0f %%) | %d / %d |\n",
			m.Name, spread(p, m.Unit), spread(c, m.Unit), 100*delta, 100*iqr, 100*m.Bound, wins, len(seeds))
		worse := delta
		if m.Better == "higher" {
			worse = -delta
		}
		if worse > m.Bound {
			verdicts = append(verdicts, fmt.Sprintf("REGRESSION: `%s` is %.1f %% worse, bound %.0f %%.", m.Name, 100*worse, 100*m.Bound))
			ok = false
		}
	}
	fmt.Println()
	for _, v := range verdicts {
		fmt.Println(v)
		fmt.Println()
	}
	return ok
}

// spread renders median [Q1, Q3], sub-second times in milliseconds.
func spread(v []float64, unit string) string {
	q1, med, q3 := quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	switch {
	case unit == "s" && med < 0.2:
		return fmt.Sprintf("%.3f ms [%.3f ms, %.3f ms]", 1e3*med, 1e3*q1, 1e3*q3)
	case unit == "MB":
		return fmt.Sprintf("%.1f [%.1f, %.1f]", med, q1, q3)
	case unit == "count":
		return fmt.Sprintf("%.0f [%.0f, %.0f]", med, q1, q3)
	}
	return fmt.Sprintf("%.3f [%.3f, %.3f]", med, q1, q3)
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
