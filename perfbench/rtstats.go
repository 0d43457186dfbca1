package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
)

// rtStats is a snapshot of one process's Go runtime counters, taken by
// the benchmark around a pass and by each sweep worker when it is
// collected. Deltas of two snapshots give the pass's allocation and GC
// cost.
type rtStats struct {
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPU        float64 `json:"gc_cpu_s"`
	UsedCPU      float64 `json:"used_cpu_s"` // total minus idle
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtStats{
		AllocBytes:   u(0),
		AllocObjects: u(1),
		GCCycles:     u(2),
		GCCPU:        f(3),
		UsedCPU:      f(4) - f(5),
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{
		AllocBytes:   a.AllocBytes - b.AllocBytes,
		AllocObjects: a.AllocObjects - b.AllocObjects,
		GCCycles:     a.GCCycles - b.GCCycles,
		GCCPU:        a.GCCPU - b.GCCPU,
		UsedCPU:      a.UsedCPU - b.UsedCPU,
	}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{
		AllocBytes:   a.AllocBytes + b.AllocBytes,
		AllocObjects: a.AllocObjects + b.AllocObjects,
		GCCycles:     a.GCCycles + b.GCCycles,
		GCCPU:        a.GCCPU + b.GCCPU,
		UsedCPU:      a.UsedCPU + b.UsedCPU,
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux clear_refs), so peakRSSKB reads a per-pass peak.
// Where the kernel does not allow it, peakRSSKB reads the lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSKB is the process's resident-set high-water mark in KiB.
func peakRSSKB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
				f := bytes.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseInt(string(f[0]), 10, 64); err == nil {
						return kb
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Maxrss
}
