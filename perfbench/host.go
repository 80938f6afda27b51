package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick rate for /proc accounting. Linux
// exports it to user space as a fixed 100 on every supported architecture.
const userHZ = 100

// usage is one getrusage reading.
type usage struct {
	cpuS   float64 // user + system seconds
	maxRSS float64 // MiB
}

func rusage(who int) usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpuS: cpu.Seconds(), maxRSS: float64(ru.Maxrss) / 1024}
}

func selfCPU() float64 { return rusage(syscall.RUSAGE_SELF).cpuS }

// stealSeconds reads the host-wide steal time from /proc/stat, summed
// over every CPU. Hypervisor steal is the wall-clock noise the rate
// metrics divide out; a wall outlier must be explainable by it.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// unstealFactor is the share of a wall-clock span of wallS seconds left
// once the hypervisor steal stealS observed during it is taken out. The
// steal is summed over the machine's CPUs, and a span's critical path
// runs on one CPU at a time, so the span lost stealS/NumCPU of its wall
// clock. (Measured on this benchmark's units, that removes the steal
// dependence of their walls; host CPU speed noise stays.)
func unstealFactor(wallS, stealS float64) float64 {
	if wallS <= 0 || stealS <= 0 {
		return 1
	}
	return max(wallS-stealS/float64(runtime.NumCPU()), 0) / wallS
}

// procCPU reads a live process's user+system seconds from /proc/<pid>/stat
// (clock-tick resolution). The serve workload uses it to split the
// server's CPU between phases while the server is still running.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procCPU: malformed stat for pid %d", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is the state (field 3), so utime (14) and stime (15) sit
	// at offsets 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("procCPU: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procCPU: bad tick counts for pid %d", pid)
	}
	return (ut + st) / userHZ, nil
}

// hostRow is the host-noise record printed with every run, so a
// wall-clock outlier can be traced to steal or to a different toolchain.
type hostRow struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	SelfCPUS   float64 `json:"self_cpu_s"`
	ChildCPUS  float64 `json:"children_cpu_s"`
	StealS     float64 `json:"steal_s"`
	SelfRSSMiB float64 `json:"self_maxrss_mib"`
}

// hostClock captures the start of a run for hostRow.
type hostClock struct {
	start time.Time
	self  float64
	child float64
	steal float64
}

func startHostClock() hostClock {
	return hostClock{
		start: time.Now(),
		self:  selfCPU(),
		child: rusage(syscall.RUSAGE_CHILDREN).cpuS,
		steal: stealSeconds(),
	}
}

func (h hostClock) row(workload string, seed uint64, trace bool) hostRow {
	self, child := rusage(syscall.RUSAGE_SELF), rusage(syscall.RUSAGE_CHILDREN)
	return hostRow{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallS:      time.Since(h.start).Seconds(),
		SelfCPUS:   self.cpuS - h.self,
		ChildCPUS:  child.cpuS - h.child,
		StealS:     stealSeconds() - h.steal,
		SelfRSSMiB: self.maxRSS,
	}
}

// rtSample reads the runtime/metrics the traced run attributes: GC CPU
// against the CPU the process used (available minus idle), and cumulative
// heap allocation.
type rtSample struct {
	gcCPU, usedCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(0), usedCPU: val(1) - val(2), allocBytes: val(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU, a.allocBytes - b.allocBytes}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.gcCPU + b.gcCPU, a.usedCPU + b.usedCPU, a.allocBytes + b.allocBytes}
}
