package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance describes what produced a result: the source revision,
// toolchain, CPU budget, workload seed and every worker count.
func provenance(root, name string, seed int64, seconds int, traced bool) map[string]any {
	return map[string]any{
		"schema":          "dftbench.provenance/v1",
		"workload":        name,
		"seed":            seed,
		"seconds":         seconds,
		"traced":          traced,
		"git_revision":    gitRevision(root),
		"source_sha256":   sourceDigest(root),
		"go_version":      runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"engine_workers":  engineWorkers,
		"server_workers":  serverWorkers,
		"service_clients": serviceClients,
		"job_workers":     jobWorkers,
	}
}

// gitRevision reads the checked-out commit from root/.git without
// running git, or returns "unknown" outside a git checkout.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, so a result names the exact source even where no git metadata
// exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // cannot fail: WalkDir yields paths under root
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
