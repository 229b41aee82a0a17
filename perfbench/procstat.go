package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTick = 100.0

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// procCPU is a live process's user+system CPU time in seconds, all
// threads, at clock-tick resolution.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// procMemKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status; pid 0
// is this process.
func procMemKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, field+":") {
			f := strings.Fields(l[len(field)+1:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// resetPeakRSS restarts this process's VmHWM at its current RSS, so each
// iteration's peak is its own. Kernels that refuse it keep the run-wide
// peak, which only makes the metric coarser.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// cpuTicks reads this machine's CPU counters from /proc/stat: the ticks the
// hypervisor stole and all ticks.
func cpuTicks() (steal, all float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			all += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, all
}
