package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// The host-noise record printed beside every pass. It is reported only:
// no metric is ever normalised by it.

// calibIters sizes the calibration spin to roughly 200 ms on the build box.
const calibIters = 100_000_000

var calibSink uint64

// calibrate times a fixed integer spin loop of iters iterations and returns
// nanoseconds per iteration. It runs before and after every child, so a
// drift inside one pass marks a host phase change rather than a change in
// the code under test.
func calibrate(iters int) float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	calibSink += x
	return float64(el.Nanoseconds()) / float64(iters)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: total and steal
// jiffies. ok is false where the file is missing or malformed.
func cpuTicks() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
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
