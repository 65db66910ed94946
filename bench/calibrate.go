package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Times are reported at a fixed reference speed. The shared hosts this
// benchmark runs on slow down by tens of percent for minutes at a time
// as neighbours contend for memory bandwidth, which swamps any change
// worth detecting. So next to each measurement the benchmark times a
// fixed kernel — string formatting, map inserts and a sort, the
// allocation- and memory-bound mix the workloads share — and scales the
// measurement by refNominal over the kernel's time. A change to the
// program leaves the kernel alone, so it moves the scaled time as much
// as the raw one; a slower host moves both, and the ratio cancels it.
// Each workload reports the kernel's median time as ref_ms: a raw time
// is roughly the scaled one × ref_ms / refNominal.
const refNominal = 40 * time.Millisecond

var kernelSink int

// kernel runs the reference kernel once, after a full collection so it
// starts from the same heap every time, and returns its duration.
func kernel() time.Duration {
	runtime.GC()
	start := time.Now()
	m := make(map[string]int)
	for i := 0; i < 100000; i++ {
		m[strconv.Itoa(i*7919)] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kernelSink += len(keys)
	return time.Since(start)
}

// sample runs the kernel once, records its time and returns it in ms.
func (c *childResult) sample() float64 {
	t := float64(kernel()) / 1e6
	c.refs = append(c.refs, t)
	return t
}

// speed runs the kernel n times and returns the factor that scales a
// time measured now to the reference speed.
func (c *childResult) speed(n int) float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = c.sample()
	}
	return refFactor(median(times))
}

// factor scales a time to the reference speed by the median of every
// kernel time the child has recorded.
func (c *childResult) factor() float64 { return refFactor(median(c.refs)) }

// refFactor is the factor that takes a time measured while the kernel took
// kernelMS to the reference speed.
func refFactor(kernelMS float64) float64 { return float64(refNominal) / 1e6 / kernelMS }

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc. Unlike wait4's ru_maxrss it starts afresh at exec, so a daemon
// does not inherit the peak of the process that forked it.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
