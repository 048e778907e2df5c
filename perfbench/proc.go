package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling
// back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter brackets a measured phase: wall, CPU and Go heap activity.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.wall0 = time.Now()
	m.cpu0 = cpuTime()
	return m
}

// reading is what a meter measured between start and stop.
type reading struct {
	wall, cpu     time.Duration
	allocBytes    float64
	allocs        float64
	gcCPUFraction float64
}

func (m *meter) stop() reading {
	r := reading{wall: time.Since(m.wall0), cpu: cpuTime() - m.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocBytes = float64(ms.TotalAlloc - m.ms0.TotalAlloc)
	r.allocs = float64(ms.Mallocs - m.ms0.Mallocs)
	r.gcCPUFraction = ms.GCCPUFraction
	return r
}

// add accumulates another phase's reading.
func (r *reading) add(o reading) {
	r.wall += o.wall
	r.cpu += o.cpu
	r.allocBytes += o.allocBytes
	r.allocs += o.allocs
	r.gcCPUFraction = o.gcCPUFraction
}
