package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"time"
)

// machineLine says where the numbers below it were measured: a throughput
// without its machine is not comparable with anything. dataDir is the
// spawned server's data directory, empty when the server is not ours.
func machineLine(dataDir string) string {
	line := fmt.Sprintf("machine: cpus=%d gomaxprocs=%d go=%s os=%s/%s",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH)
	if fs := fsType(dataDir); fs != "" {
		line += " data-fs=" + fs
	}
	return line
}

// fsType names the filesystem dir is on — the type of the longest mount
// point in /proc/mounts that contains it — or "" where that cannot be read.
func fsType(dir string) string {
	if dir == "" {
		return ""
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return ""
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line) // device, mount point, type, ...
		if len(f) < 3 || len(f[1]) < len(best) {
			continue
		}
		if mp := f[1]; mp == "/" || dir == mp || strings.HasPrefix(dir, mp+"/") {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// latencyLine merges the workers' request latencies into one line. Workers
// that drive the store in process are not timed (requests=0): the bench
// ladder's shardkv rungs measure that cost.
func (s *storm) latencyLine() string {
	var all []time.Duration
	for _, l := range s.lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return "latency: requests=0"
	}
	slices.Sort(all)
	pct := func(p int) time.Duration { return all[max((len(all)*p+99)/100-1, 0)] }
	return fmt.Sprintf("latency: requests=%d p50=%s p99=%s max=%s", len(all), pct(50), pct(99), all[len(all)-1])
}
