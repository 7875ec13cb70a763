package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host fingerprints the machine a result was measured on, so that a
// second host can tell host drift from a regression: toolchain, platform,
// processor, parallelism, and how busy the machine was around the run.
type host struct {
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Workers    int        `json:"workers"`
	CPUModel   string     `json:"cpu_model"`
	LoadBefore [3]float64 `json:"load_before"`
	LoadAfter  [3]float64 `json:"load_after"`
	Seed       int64      `json:"seed"`
}

func fingerprint(workers int, seed int64) host {
	return host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   cpuModel(),
		LoadBefore: loadAvg(),
		Seed:       seed,
	}
}

// cpuModel reads the processor's model name from the kernel's cpuinfo
// interface; "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg returns the 1-, 5- and 15-minute load averages.
func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	var out [3]float64
	if err := syscall.Sysinfo(&si); err != nil {
		return out
	}
	for i, l := range si.Loads {
		out[i] = float64(l) / (1 << 16) // SI_LOAD_SHIFT fixed point
	}
	return out
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
