package charlib

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pdk"
)

func TestCacheKeySensitivity(t *testing.T) {
	subset := []*pdk.Cell{
		pdk.FindCell(catalog, "INVx1"),
		pdk.FindCell(catalog, "NAND2x1"),
	}
	cfg := QuickConfig(300)
	base := CacheKey(subset, cfg)

	if CacheKey(subset, cfg) != base {
		t.Error("cache key is not deterministic")
	}

	vdd := cfg
	vdd.Vdd *= 1.1
	if CacheKey(subset, vdd) == base {
		t.Error("Vdd change did not change the cache key")
	}

	temp := cfg
	temp.TempK = 10
	if CacheKey(subset, temp) == base {
		t.Error("temperature change did not change the cache key")
	}

	grid := cfg
	grid.Slews = append(append([]float64(nil), cfg.Slews...), 99e-12)
	if CacheKey(subset, grid) == base {
		t.Error("slew-grid change did not change the cache key")
	}

	loads := cfg
	loads.Loads = append(append([]float64(nil), cfg.Loads...), 9e-15)
	if CacheKey(subset, loads) == base {
		t.Error("load-grid change did not change the cache key")
	}

	// Same length, same temperature, different cells: only the fingerprint
	// can tell these apart (the old count+temperature check could not).
	other := []*pdk.Cell{
		pdk.FindCell(catalog, "INVx1"),
		pdk.FindCell(catalog, "NOR2x1"),
	}
	if CacheKey(other, cfg) == base {
		t.Error("cell-list change did not change the cache key")
	}

	// The key is versioned by the measurement engine: this subset's key
	// under the v1 engine (fixed-grid transients, trapezoid supply energy)
	// must not be served to the coasting engine, whose energy tables differ
	// in their low digits.
	const v1Key = "1284eb430b79f1de4315f3b583713229623bc6afc6430667604beb62423205ef"
	if base == v1Key {
		t.Error("cache key still matches the v1 engine's key")
	}

	// Worker count is excluded: it cannot change characterization results.
	workers := cfg
	workers.Workers = cfg.Workers + 3
	if CacheKey(subset, workers) != base {
		t.Error("worker count leaked into the cache key")
	}
}

func TestCacheMissOnConfigChange(t *testing.T) {
	obs.EnableMetrics()
	hits := obs.C("charlib.cache.hits")
	misses := obs.C("charlib.cache.misses")
	hits0, misses0 := hits.Value(), misses.Value()

	subset := []*pdk.Cell{pdk.FindCell(catalog, "INVx1")}
	cfg := QuickConfig(300)
	dir := t.TempDir()
	path := filepath.Join(dir, "inv.lib")
	ctx := context.Background()

	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - misses0; got != 1 {
		t.Fatalf("first characterization recorded %d misses, want 1", got)
	}
	if _, err := os.Stat(metaPath(path)); err != nil {
		t.Fatalf("sidecar key file not written: %v", err)
	}

	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	if got := hits.Value() - hits0; got != 1 {
		t.Fatalf("identical request recorded %d hits, want 1", got)
	}

	// A changed supply voltage must invalidate the cache even though the
	// temperature and cell count still match the liberty file.
	changed := cfg
	changed.Vdd *= 1.05
	lib, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, changed)
	if err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - misses0; got != 2 {
		t.Fatalf("Vdd change recorded %d misses, want 2", got)
	}
	if lib.Vdd != changed.Vdd {
		t.Errorf("regenerated library has Vdd %g, want %g", lib.Vdd, changed.Vdd)
	}

	// The sidecar now holds the new key, so repeating the changed request
	// hits, and the original request misses again.
	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, changed); err != nil {
		t.Fatal(err)
	}
	if got := hits.Value() - hits0; got != 2 {
		t.Fatalf("repeated changed request recorded %d hits, want 2", got)
	}
	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - misses0; got != 3 {
		t.Fatalf("reverted request recorded %d misses, want 3", got)
	}
}

// TestCacheHitEqualsMiss: the library a miss characterizes and caches is
// the one a later hit parses from the cache, table for table.
func TestCacheHitEqualsMiss(t *testing.T) {
	subset := []*pdk.Cell{
		pdk.FindCell(catalog, "INVx1"),
		pdk.FindCell(catalog, "NAND2x1"),
		pdk.FindCell(catalog, "AOI21x1"),
	}
	cfg := QuickConfig(10)
	path := filepath.Join(t.TempDir(), "q.lib")
	ctx := context.Background()
	miss, err := CharacterizeLibraryCached(ctx, path, "q10", subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := CharacterizeLibraryCached(ctx, path, "q10", subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(miss, hit) {
		t.Fatal("the cache miss returned other tables than the cache hit")
	}
}

func TestCacheMissOnMissingSidecar(t *testing.T) {
	obs.EnableMetrics()
	misses := obs.C("charlib.cache.misses")
	misses0 := misses.Value()

	subset := []*pdk.Cell{pdk.FindCell(catalog, "INVx1")}
	cfg := QuickConfig(300)
	dir := t.TempDir()
	path := filepath.Join(dir, "inv.lib")
	ctx := context.Background()

	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	// A liberty file without its sidecar (e.g. written by an older version
	// with the weak count+temperature check) must not be trusted.
	if err := os.Remove(metaPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - misses0; got != 2 {
		t.Fatalf("missing sidecar recorded %d misses, want 2", got)
	}
}

// TestCorruptCacheWarningJournaled: a liberty file that fails to parse
// under a sidecar holding the requested key is a miss, and leaves exactly
// one warning in the journal.
func TestCorruptCacheWarningJournaled(t *testing.T) {
	subset := []*pdk.Cell{pdk.FindCell(catalog, "INVx1")}
	cfg := QuickConfig(300)
	key := CacheKey(subset, cfg)
	path := filepath.Join(t.TempDir(), "inv.lib")
	if err := os.WriteFile(path, []byte("library (inv300) {\n  cell (INVx1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(path), []byte(key+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prev := obs.SetJournal(obs.NewJournal(&buf, "r-cache"))
	lib := readCache(path, key, cfg, len(subset))
	obs.SetJournal(prev).Close()
	if lib != nil {
		t.Fatal("corrupt cache was served")
	}
	evs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != obs.KindWarning || evs[0].Stage != "charlib.cache" ||
		evs[0].Attrs["path"] != path {
		t.Fatalf("want one charlib.cache warning, journal has %+v", evs)
	}
}

// TestCacheMissOnV2Sidecar checks that a library cached by the v2 engine,
// whose transient Newton solves started from the last sample, is not
// served: the predicted start point moves its tables in their low digits.
func TestCacheMissOnV2Sidecar(t *testing.T) {
	obs.EnableMetrics()
	misses := obs.C("charlib.cache.misses")
	misses0 := misses.Value()

	subset := []*pdk.Cell{pdk.FindCell(catalog, "INVx1")}
	cfg := QuickConfig(300)
	path := filepath.Join(t.TempDir(), "inv.lib")
	ctx := context.Background()
	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	// The v2 engine's key of this request, with the liberty file left as is.
	const v2Key = "0d448516fd25aa5a639cc553563a87d09114ffda8ea076feed6e4c1f88186163"
	if err := os.WriteFile(metaPath(path), []byte(v2Key+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeLibraryCached(ctx, path, "inv300", subset, cfg); err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - misses0; got != 2 {
		t.Fatalf("v2 sidecar recorded %d misses, want 2", got)
	}
}
