package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo describes the machine and build a run was measured on; a number
// without it cannot be compared with anything.
type envInfo struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Load1Start float64  `json:"load1_start"`
	Load1End   float64  `json:"load1_end"`
	Started    string   `json:"started"`
	Warnings   []string `json:"warnings,omitempty"`
}

func captureEnv() envInfo {
	e := envInfo{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Load1Start: load1(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	e.warnLoad("start", e.Load1Start)
	return e
}

func (e *envInfo) finish() {
	e.Load1End = load1()
	e.warnLoad("end", e.Load1End)
}

// warnLoad flags a machine that was busy with something else: on a shared
// box wall-clock metrics are then suspect, CPU and byte counts much less so.
func (e *envInfo) warnLoad(when string, load float64) {
	if load > float64(e.NProc)/2 {
		e.Warnings = append(e.Warnings, fmt.Sprintf(
			"1-minute load average %.2f at %s exceeds half of %d cores: wall-clock timings are suspect", load, when, e.NProc))
	}
}

// gitCommit resolves HEAD by reading .git in the working directory, which
// run.sh makes the repository root (the driver's checkout is not a
// repository and has no git binary to ask); "unknown" there.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
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

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall       time.Time
	cpuSeconds float64 // user + system, whole process
	gcSeconds  float64 // CPU the collector used
	allocBytes uint64  // cumulative heap allocation
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	u := usage{wall: time.Now(), cpuSeconds: tv(ru.Utime) + tv(ru.Stime)}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcSeconds = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = samples[1].Value.Uint64()
	}
	return u
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// liveHeapMiB forces a collection and reports what survived it.
func liveHeapMiB() float64 {
	// Twice: what the first cycle's finalizers release is only collected by
	// the second.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirMiB sums the regular files under dir.
func dirMiB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
