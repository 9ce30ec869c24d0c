package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostRecord notes how noisy the host was during a run. It is printed, never
// gated: a later too-noisy verdict can be traced to guest steal time or load
// rather than to the code.
type hostRecord struct {
	steal0, total0 float64
}

func startHostRecord() *hostRecord {
	steal, total := readProcStat()
	return &hostRecord{steal0: steal, total0: total}
}

func (h *hostRecord) finish(out io.Writer, reruns int) {
	steal, total := readProcStat()
	rec := map[string]any{
		"steal_s":    (steal - h.steal0) / 100, // USER_HZ
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"reruns":     reruns,
	}
	if d := total - h.total0; d > 0 {
		rec["steal_frac"] = (steal - h.steal0) / d
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			rec["loadavg"] = f[:3]
		}
	}
	line, _ := json.Marshal(rec)
	fmt.Fprintf(out, "host %s\n", line)
}

// readProcStat returns the aggregate steal and total jiffies from the "cpu"
// line of /proc/stat, or zeros where it is unavailable.
func readProcStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
