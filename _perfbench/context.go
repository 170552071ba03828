package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// runContext records what produced a result: inputs, parallelism, host
// and code revision.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	// Oversubscribed flags a run whose GOMAXPROCS exceeds the CPUs the
	// process may use: its timings include the scheduler's time slicing.
	Oversubscribed bool   `json:"oversubscribed"`
	SweepWorkers   int    `json:"sweep_workers"`
	SimWorkers     int    `json:"sim_workers"`
	CPU            string `json:"cpu"`
	Go             string `json:"go"`
	Revision       string `json:"vcs_revision"`
	// Source hashes the module's Go sources, so a run from a checkout
	// without version-control metadata still names its code.
	Source string `json:"source_sha256"`
}

func printContext(w io.Writer, o options, sweepWorkers, simWorkers int) {
	c := runContext{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		SweepWorkers: sweepWorkers, SimWorkers: simWorkers,
		CPU: cpuModel(), Go: runtime.Version(), Revision: "unknown", Source: sourceDigest("."),
	}
	c.Oversubscribed = c.GOMAXPROCS > c.NProc
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c.Revision = s.Value
			}
		}
	}
	b, err := json.Marshal(c)
	if err != nil {
		b = []byte(err.Error())
	}
	fmt.Fprintf(w, "context %s\n", b)
	if c.Oversubscribed {
		fmt.Fprintf(w, "warning: GOMAXPROCS=%d exceeds the %d usable CPUs\n", c.GOMAXPROCS, c.NProc)
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
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

// sourceDigest hashes the path and contents of every .go file and go.mod
// under root, skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
