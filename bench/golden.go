package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The golden digests pin every op's output, at full and at check size,
// for the seeds committed under golden/ (42, and 7 held out). A file maps
// golden key (see goldenKey) -> op -> SHA-256.
//
//go:embed golden/*.json
var goldenFS embed.FS

type goldenFile map[string]map[string]string

func goldenName(seed int64) string { return fmt.Sprintf("seed-%d.json", seed) }

// loadGolden returns the committed digests for seed; nil when none exist.
func loadGolden(seed int64) (goldenFile, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g, nil
}

// verifyGolden compares a pass's digests with the committed ones and marks
// every op whose digest differs or has no golden entry as failed. It
// returns "verified", "unverified" when no digests exist for this seed and
// key, or "invalid" when the golden file cannot be read.
func verifyGolden(key string, seed int64, ops []string, digests, failures map[string]string) string {
	g, err := loadGolden(seed)
	if err != nil {
		for _, op := range ops {
			failures[op] = err.Error()
		}
		return "invalid"
	}
	want, ok := g[key]
	if key == "" || !ok {
		return "unverified"
	}
	for _, op := range ops {
		got, have := digests[op]
		switch {
		case !have:
			// The op errored before producing output; its failure is recorded.
		case want[op] == "":
			failures[op] = "no golden digest"
		case got != want[op]:
			failures[op] = fmt.Sprintf("digest %.12s, golden %.12s", got, want[op])
		}
	}
	return "verified"
}

// goldenDir is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenDir = "bench/golden"

// updateGolden rewrites one key's entry in the golden file for seed,
// keeping the other entries.
func updateGolden(seed int64, key string, digests map[string]string) error {
	path := filepath.Join(goldenDir, goldenName(seed))
	g := goldenFile{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("golden %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	g[key] = digests
	return writeJSON(path, g)
}
