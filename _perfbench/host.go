package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"irfusion/internal/parallel"
)

// host identifies the machine and build a result was measured on.
type host struct {
	CPU             string `json:"cpu"`
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	IrfusionWorkers string `json:"irfusion_workers"` // the environment setting, "" when unset
	PoolWorkers     int    `json:"pool_workers"`     // what the parallel pool resolved it to
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
}

func (h host) String() string {
	w := h.IrfusionWorkers
	if w == "" {
		w = "unset"
	}
	s := fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, IRFUSION_WORKERS %s (pool %d), %s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, w, h.PoolWorkers, h.GoVersion)
	if h.Commit != "" {
		s += ", commit " + h.Commit
	}
	return s
}

func hostInfo(root string) host {
	return host{
		CPU:             cpuModel(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		IrfusionWorkers: os.Getenv("IRFUSION_WORKERS"),
		PoolWorkers:     parallel.Default().Workers(),
		GoVersion:       runtime.Version(),
		Commit:          commit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git revision the binary was built from when the
// checkout is a git work tree, and otherwise a digest of the
// repository's Go sources and go.mod files, which identifies the code
// as well.
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
