package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"bpart/internal/graph"
)

// hostInfo is the fingerprint every run prints beside its metrics.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"l2":         l2Size(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func l2Size() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB is a process's VmHWM (peak resident set) in MiB; pid 0 means
// this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// inputShape describes a dataset: |V|, |E| and the bytes of its CSR
// (uint64 offsets plus uint32 targets).
func inputShape(name string, g *graph.Graph) map[string]any {
	n, m := g.NumVertices(), g.NumEdges()
	return map[string]any{
		"dataset":   name,
		"vertices":  n,
		"edges":     m,
		"csr_bytes": (n+1)*8 + m*4,
	}
}
