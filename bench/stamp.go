package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// stamp says where and when a result was measured. Every result file
// carries one: a number without its machine is not comparable.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	DataFs     string  `json:"data_fs"` // filesystem type under the data directories
	Commit     string  `json:"git_commit"`
	Time       string  `json:"time"`
	WallS      float64 `json:"wall_s"` // the whole run, set-up and checks included
}

func newStamp(dataDir string, wall time.Duration) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		DataFs:     fsType(dataDir),
		Commit:     gitCommit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		WallS:      wall.Seconds(),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem dir is on, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitCommit reads the checked-out commit from the nearest .git directory
// at or above the working directory, without running git. A checkout that
// is not a repository (the benchmark driver's) reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if sha, ok := strings.CutSuffix(line, " "+ref); ok {
						return sha
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
