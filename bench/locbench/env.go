package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment records where and how a run was made, so a number is never
// read without the machine and commit behind it.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Jobs       string `json:"jobs"`
	Clients    int    `json:"clients"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func newEnvironment(cfg config, w workload) environment {
	jobs := fmt.Sprintf("%d", jobCount(cfg, w))
	if !cfg.trace {
		jobs += fmt.Sprintf(" × %d passes", w.passes)
	}
	return environment{
		Workload:   w.name,
		Seed:       cfg.seed,
		Jobs:       jobs,
		Clients:    w.clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

func (e environment) line() string {
	return fmt.Sprintf("env workload=%s seed=%d jobs=%q clients=%d gomaxprocs=%d nproc=%d cpu=%q go=%s goarch=%s commit=%s",
		e.Workload, e.Seed, e.Jobs, e.Clients, e.GOMAXPROCS, e.NumCPU, e.CPU, e.GoVersion, e.GOARCH, e.Commit)
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

// commit returns the git revision the go tool stamped into the binary,
// marked "+dirty" for a modified tree, or "unknown" when the build had no
// repository (a bare checkout) or was a test binary.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
