package charlib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

// CacheKey fingerprints one characterization request: the full Config (Vdd,
// temperature, slew and load grids — everything except the worker count,
// which cannot change results) plus the complete cell list (names, drives,
// pin lists, stage networks, truth tables, areas, sequential metadata). Any
// change to either yields a different key, so a cached liberty file can
// never be silently reused for a different corner or library revision.
func CacheKey(cells []*pdk.Cell, cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "v3|vdd=%.17g|temp=%.17g|slews=%v|loads=%v\n", cfg.Vdd, cfg.TempK, cfg.Slews, cfg.Loads)
	// Forensics knobs change results, so they must key the cache — but only
	// when set, so existing cached corners keep their keys.
	if cfg.NewtonIterLimit != 0 || cfg.SkipLeakage {
		fmt.Fprintf(h, "iterlimit=%d|skipleak=%t\n", cfg.NewtonIterLimit, cfg.SkipLeakage)
	}
	for _, c := range cells {
		fmt.Fprintf(h, "cell=%s|base=%s|drive=%d|in=%s|out=%s|area=%.17g|seq=%t|clock=%s|edge=%t|flop=%t\n",
			c.Name, c.Base, c.Drive, strings.Join(c.Inputs, ","), strings.Join(c.Outputs, ","),
			c.Area(), c.Seq, c.Clock, c.Edge, c.IsFlop)
		for _, st := range c.Stages {
			if st.Tri != nil {
				fmt.Fprintf(h, "  stage=%s|tri=%s,%s,%s\n", st.Out, st.Tri.In, st.Tri.EnN, st.Tri.EnP)
			} else if st.F != nil {
				fmt.Fprintf(h, "  stage=%s|f=%s\n", st.Out, st.F.String())
			}
		}
		for _, out := range c.Outputs {
			if tt, ok := c.Truth(out); ok {
				fmt.Fprintf(h, "  truth=%s|%016x\n", out, tt)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metaPath is the sidecar file that records the cache key of a
// characterized liberty file.
func metaPath(path string) string { return path + ".meta" }

// CharacterizeLibraryCached characterizes the library unless a liberty file
// at path already holds a matching corner — validated against the SHA-256
// cache key of the full Config and cell list, not just temperature and cell
// count — in which case the cached file is parsed and returned. Freshly
// characterized results are written to path with the key in a sidecar
// path.meta file, and the library returned is the one parsed back from
// that file, as a hit returns it. Cache hits and misses are recorded in the
// charlib.cache.hits / charlib.cache.misses counters.
func CharacterizeLibraryCached(ctx context.Context, path, name string, cells []*pdk.Cell, cfg Config) (*liberty.Library, error) {
	key := CacheKey(cells, cfg)
	if lib := readCache(path, key, cfg, len(cells)); lib != nil {
		obs.C("charlib.cache.hits").Inc()
		return lib, nil
	}
	obs.C("charlib.cache.misses").Inc()
	lib, err := CharacterizeLibrary(ctx, name, cells, cfg)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := lib.Write(&text); err != nil {
		return nil, err
	}
	// A hit parses the written text, so a miss returns the same parse: the
	// caller sees the same tables whether the corner was cached or not.
	if lib, err = liberty.Parse(bytes.NewReader(text.Bytes())); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, text.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	if err := os.WriteFile(metaPath(path), []byte(key+"\n"), 0o644); err != nil {
		return nil, err
	}
	obs.J().Artifact("charlib.cache", path)
	return lib, nil
}

// readCache returns the cached library when both the sidecar key and the
// parsed file agree with the request, nil otherwise (stale, corrupt, or
// absent caches all fall through to regeneration).
func readCache(path, key string, cfg Config, nCells int) *liberty.Library {
	meta, err := os.ReadFile(metaPath(path))
	if err != nil {
		return nil
	}
	if strings.TrimSpace(string(meta)) != key {
		return nil // stale: the config or the cell list changed
	}
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	lib, err := liberty.Parse(f)
	if err != nil {
		obs.Warn("charlib.cache", fmt.Sprintf("cache %s is corrupt (%v), re-characterizing", path, err),
			map[string]string{"path": path})
		return nil
	}
	// Defense in depth: the sidecar could have survived a liberty rewrite.
	if lib.TempK != cfg.TempK || len(lib.Cells) != nCells {
		obs.Warn("charlib.cache", fmt.Sprintf("cache %s does not match its sidecar key, re-characterizing", path),
			map[string]string{"path": path})
		return nil
	}
	return lib
}

// DefaultCachePath returns the canonical on-disk location for a
// characterized corner, rooted at dir.
func DefaultCachePath(dir string, tempK float64, n int) string {
	return filepath.Join(dir, fmt.Sprintf("cryolib_%gK_%dcells.lib", tempK, n))
}

// Corner is one temperature corner of the flow's standard-cell library.
type Corner struct {
	TempK float64
	// Testlib builds testlib's closed-form library over testlib.Names()
	// instead of characterizing: no SPICE, no cache.
	Testlib bool
	// Cells are the PDK cells to characterize (nil: the whole catalog).
	Cells []*pdk.Cell
	// CacheDir roots DefaultCachePath (default "build"); Path, when set,
	// is the liberty cache file instead.
	CacheDir, Path string
	Workers        int // characterization worker pool (0: GOMAXPROCS)
}

// CachePath is the liberty file a characterized corner is cached in.
func (c Corner) CachePath() string {
	if c.Path != "" {
		return c.Path
	}
	dir := c.CacheDir
	if dir == "" {
		dir = "build"
	}
	n := len(c.Cells)
	if c.Cells == nil {
		n = len(pdk.Catalog())
	}
	return DefaultCachePath(dir, c.TempK, n)
}

// Library returns the corner's library and the PDK cells it covers: the
// DefaultConfig characterization of the cells, named cryo<T>k and cached
// at CachePath, or testlib's library with Testlib set.
func (c Corner) Library(ctx context.Context) (*liberty.Library, []*pdk.Cell, error) {
	if c.Cells == nil {
		c.Cells = pdk.Catalog()
	}
	if c.Testlib {
		lib, cells := testlib.Build(c.Cells, testlib.Names(), c.TempK)
		return lib, cells, nil
	}
	cfg := DefaultConfig(c.TempK)
	cfg.Workers = c.Workers
	lib, err := CharacterizeLibraryCached(ctx, c.CachePath(), fmt.Sprintf("cryo%gk", c.TempK), c.Cells, cfg)
	return lib, c.Cells, err
}
