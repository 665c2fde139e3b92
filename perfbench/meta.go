package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostMeta is the host and build description printed with every
// result, so two records can be told apart before they are compared.
type hostMeta struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	CPUFlags   []string          `json:"cpu_flags"` // the SIMD flags rrsd's kernels care about
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_sha256"`
	RrsdFlags  map[string]string `json:"rrsd_flags,omitempty"`
}

var simdFlags = []string{"avx2", "fma", "avx512f", "avx512bw", "avx512vl", "asimd"}

func collectMeta(srcRoot string) hostMeta {
	m := hostMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(srcRoot),
		SourceHash: sourceHash(srcRoot),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		m.CPUModel, m.CPUFlags = parseCPUInfo(data)
	}
	return m
}

// parseCPUInfo returns the first processor's model name and which of
// simdFlags it advertises.
func parseCPUInfo(data []byte) (model string, flags []string) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var have map[string]bool
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case (k == "model name" || k == "Model") && model == "":
			model = v
		case (k == "flags" || k == "Features") && have == nil:
			have = make(map[string]bool)
			for _, f := range strings.Fields(v) {
				have[f] = true
			}
		}
	}
	for _, f := range simdFlags {
		if have[f] {
			flags = append(flags, f)
		}
	}
	return model, flags
}

// gitCommit reads HEAD from a .git directory without running git; a
// checkout exported without one reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceHash digests the program's Go sources and module file — every
// .go file and go.mod under root outside the benchmark's own directory
// and build outputs — so runs of identical code share a hash even
// where no commit is recorded.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
