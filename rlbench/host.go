package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
)

// host fingerprints the machine a result was measured on, so results
// from different host shapes are never compared as like for like.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
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

// usage is a snapshot of the process's memory and GC counters; the
// difference of two snapshots is what a timed phase cost.
type usage struct {
	mallocs  uint64
	allocB   uint64
	gcCPU    float64 // runtime/metrics GC CPU seconds
	totalCPU float64 // runtime/metrics total CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcCPU:    sampleFloat(cpuSamples[0]),
		totalCPU: sampleFloat(cpuSamples[1]),
	}
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// heapLiveMiB forces a collection and returns the live heap in MiB,
// less own: the bytes of the benchmark's own sample buffers, which are
// sized before set-up and so are the same in every run.
func heapLiveMiB(own int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(own)) / (1 << 20)
}

// phaseUsage fills the runtime metrics of one timed phase of ops ops.
func phaseUsage(r *report, a, b usage, ops int) {
	r.ratio("runtime.allocs_per_op", float64(b.mallocs-a.mallocs), float64(ops), "count")
	r.ratio("runtime.alloc_bytes_per_op", float64(b.allocB-a.allocB), float64(ops), "B")
	gc, total := b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU
	r.ratio("runtime.gc_cpu_fraction", gc*1e6, total*1e6, "ratio")
}
