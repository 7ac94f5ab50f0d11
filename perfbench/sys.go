package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"rramft/internal/par"
)

// defaultProcs is the GOMAXPROCS every run uses unless the host has fewer
// CPUs. Quick Fig. 7(a) training varied 98–104 it/s with one worker and
// 99–122 it/s with two on a 2-vCPU host, so the worker count is pinned and
// recorded rather than left to the scheduler.
const defaultProcs = 2

// runEnv is what every result records about how it ran.
type runEnv struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    string `json:"rramft_workers"`
	GoVersion  string `json:"go_version"`
}

// pinRuntime fixes GOMAXPROCS and RRAMFT_WORKERS before any program code
// runs. It refuses a GOMAXPROCS above the CPU count (oversubscription
// makes every timing depend on the host's scheduler) and any worker count
// but 1.
func pinRuntime(seed int64) (runEnv, error) {
	nproc := runtime.NumCPU()
	procs := defaultProcs
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return runEnv{}, fmt.Errorf("GOMAXPROCS=%q is not a positive integer", v)
		}
		procs = n
	}
	if procs > nproc {
		if os.Getenv("GOMAXPROCS") != "" {
			return runEnv{}, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host", procs, nproc)
		}
		procs = nproc
	}
	runtime.GOMAXPROCS(procs)
	if v := os.Getenv(par.EnvWorkers); v != "" && v != "1" {
		return runEnv{}, fmt.Errorf("%s=%s: the benchmark runs with 1 worker", par.EnvWorkers, v)
	}
	if err := os.Setenv(par.EnvWorkers, "1"); err != nil {
		return runEnv{}, fmt.Errorf("setting %s: %w", par.EnvWorkers, err)
	}
	return runEnv{
		Seed: seed, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: os.Getenv(par.EnvWorkers), GoVersion: runtime.Version(),
	}, nil
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC CPU
// accounting and of the process's CPU time, for deltas over a timed
// window.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds, the runtime's estimate
	cpu        time.Duration
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	s.cpu = cpuNow()
	return s
}
