package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp records where a number was measured, so two result files can
// be told apart before they are compared.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Ranks      int    `json:"ranks"`
	// Undersized is set when the host has fewer cores than the run has
	// ranks: wall-clock numbers then measure the scheduler, and the
	// report leaves them out.
	Undersized bool `json:"undersized_host"`
	// StealShare is the share of the run's CPU time the hypervisor gave
	// to other guests (Linux /proc/stat; 0 where that is not readable).
	// Timed intervals are reported net of it, see stopwatch.
	StealShare float64 `json:"steal_share"`
}

func stampEnv() envStamp {
	commit := "unknown" // a checkout without .git carries no revision
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	procs := runtime.GOMAXPROCS(0)
	return envStamp{
		Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, Ranks: ranks,
		Undersized: min(runtime.NumCPU(), procs) < ranks,
	}
}

// hostCPU reads the first line of /proc/stat: the CPU seconds the
// hypervisor has withheld from this guest so far (steal) and the guest's
// total CPU seconds, both summed over its CPUs. ok is false where the
// file is missing (not Linux) or unreadable; steal is then taken as 0.
func hostCPU() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	const ticksPerSecond = 100 // USER_HZ, fixed by the Linux ABI
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal / ticksPerSecond, total / ticksPerSecond, true
}

// cpuPerSteal is how many CPU seconds the process spends more per CPU
// second the hypervisor steals while it runs: caches are cold after
// every preemption, and a rank spins on a partner whose CPU is away.
// Fitted on the reference host over 4–8 minutes of back-to-back
// iterations of each batch workload: 0.28, 0.23 and 0.25 (README,
// "Taking the host out of the times").
const cpuPerSteal = 0.25

// stopwatch times an interval and takes the hypervisor out of it. On a
// shared virtual host steal comes in bursts of minutes and stretched
// identical iterations by up to a factor of two; it measures the
// neighbours, not the program. Over the interval the process used C CPU
// seconds and the guest was refused S: it asked for C+S and got C, so
// the wall clock is scaled by C/(C+S), the share of the CPU time asked
// for that was given. (Subtracting the per-CPU average of S instead
// undercorrects: a rank whose CPU is away also stalls the rank waiting
// for it, and work on one thread loses its own CPU's steal, not the
// average.) C is taken less cpuPerSteal·S, the part of it steal caused.
// On bare metal S is 0 and every number is as the clock gave it.
type stopwatch struct {
	t0           time.Time
	steal0, cpu0 float64
}

// interval is what a stopwatch measured.
type interval struct {
	wall float64 // seconds, scaled by the share of the CPU time asked for that was given
	raw  float64 // seconds, plain wall clock
	cpu  float64 // process CPU seconds, less what steal added
}

func startWatch() stopwatch {
	steal, _, _ := hostCPU()
	return stopwatch{t0: time.Now(), steal0: steal, cpu0: readUsage().cpuSeconds}
}

func (w stopwatch) elapsed() interval {
	raw := time.Since(w.t0).Seconds()
	cpu := readUsage().cpuSeconds - w.cpu0
	steal, _, _ := hostCPU()
	return correctForSteal(raw, cpu, max(steal-w.steal0, 0))
}

func correctForSteal(raw, cpu, steal float64) interval {
	if steal == 0 || cpu <= 0 {
		return interval{wall: raw, raw: raw, cpu: cpu}
	}
	// Steal is counted in 10 ms ticks and may belong to another process
	// of the guest, so a short interval can read more of it than it
	// suffered: the correction is capped.
	c := max(cpu-cpuPerSteal*steal, cpu/2)
	return interval{wall: raw * max(c/(c+steal), 0.25), raw: raw, cpu: c}
}

// usage is the process's resource use so far.
type usage struct {
	cpuSeconds float64
	peakRSSMB  float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpuSeconds: tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// allocatedMB is the cumulative heap allocation of the process.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
