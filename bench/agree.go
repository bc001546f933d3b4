package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// declared is BENCHMARK.json: what the benchmark promises to print and
// the bound each end-to-end metric is held to.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// agreeRuns is the size of each of the two sets.
const agreeRuns = 5

// runAgree measures whether the benchmark agrees with itself: for each
// workload, two sets of agreeRuns untraced runs of this same binary, the
// sets alternating run by run so both see the same drift of the host,
// each run in its own process (peak RSS is per process) with its own
// seed. Per end-to-end metric it prints both medians, the quartiles and
// spread of all runs, and whether the second median is within the
// declared bound of the first and the spread within the bound.
func runAgree(w io.Writer, opt options) error {
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree runs from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Self-agreement of the benchmark\n\n")
	fmt.Fprintf(w, "`bash bench/run.sh -agree`: per workload, two sets of %d runs of the same binary,\n", agreeRuns)
	fmt.Fprintf(w, "alternating A B A B …, seeds %d–%d in both sets, `-seconds %d`. A metric passes when\n",
		opt.seed, opt.seed+agreeRuns-1, decl.RunSeconds)
	fmt.Fprintf(w, "set B's median is not worse than set A's by more than its bound and the\n")
	fmt.Fprintf(w, "interquartile spread of all %d runs, as a share of their median, is within the bound.\n\n", 2*agreeRuns)
	ok := true
	for _, wl := range decl.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		var steal []float64
		for i := 0; i < 2*agreeRuns; i++ {
			seed := opt.seed + int64(i/2)
			out, err := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(decl.RunSeconds), "-trace", "0", "-dir", opt.dir).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wl.Name, seed, rep.Failed, rep.Attempted)
			}
			for name, m := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			if len(lines) > 1 {
				var info map[string]any
				if json.Unmarshal([]byte(lines[len(lines)-2]), &info) == nil {
					if s, isNum := info["host.steal_pct"].(float64); isNum {
						steal = append(steal, s)
					}
				}
			}
		}
		fmt.Fprintf(w, "## %s\n\n", wl.Name)
		fmt.Fprintf(w, "| metric | unit | median A | median B | B vs A | q1 | q3 | spread | bound | |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range decl.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) != agreeRuns || len(b) != agreeRuns {
				return fmt.Errorf("%s: metric %s printed on %d+%d of %d runs", wl.Name, d.Name, len(a), len(b), 2*agreeRuns)
			}
			all := append(append([]float64(nil), a...), b...)
			ma, mb, mall := quantile(a, 0.5), quantile(b, 0.5), quantile(all, 0.5)
			q1, q3 := quartiles(all)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			spread := (q3 - q1) / mall
			// The driver holds setup_s's medians to its bound, not its spread.
			pass := worse <= d.Bound && (spread <= d.Bound || d.Name == "setup_s")
			verdict := "pass"
			if !pass {
				verdict, ok = "**FAIL**", false
			}
			fmt.Fprintf(w, "| `%s` | %s | %.6g | %.6g | %+.2f %% | %.6g | %.6g | %.2f %% | %.0f %% | %s |\n",
				d.Name, d.Unit, ma, mb, 100*(mb-ma)/ma, q1, q3, 100*spread, 100*d.Bound, verdict)
		}
		sort.Float64s(steal)
		if len(steal) > 0 {
			fmt.Fprintf(w, "\nhost.steal_pct over the runs: median %.2f, max %.2f\n", quantile(steal, 0.5), steal[len(steal)-1])
		}
		fmt.Fprintln(w)
	}
	if !ok {
		return fmt.Errorf("a metric missed its bound: raise -seconds (run_seconds), not the bound, and run again")
	}
	return nil
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
