package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostState is the /proc/stat CPU line at the start of a run.
type hostState struct {
	total, steal uint64
	ok           bool
}

// startHost snapshots the host's CPU accounting.
func startHost() hostState {
	total, steal, ok := readProcStat()
	return hostState{total, steal, ok}
}

// record adds the host's description and the share of CPU time stolen by
// the hypervisor during the run, so a noisy run is visible in its own
// record. Nothing here is gated.
func (h hostState) record(info map[string]any) {
	info["host.num_cpu"] = runtime.NumCPU()
	info["host.gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["host.go_version"] = runtime.Version()
	total, steal, ok := readProcStat()
	if h.ok && ok && total > h.total {
		info["host.steal_pct"] = 100 * float64(steal-h.steal) / float64(total-h.total)
	}
}

// readProcStat returns the aggregate CPU line of /proc/stat as total and
// steal jiffies.
func readProcStat() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Guest time (fields 9 and 10) is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0 where
// /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
