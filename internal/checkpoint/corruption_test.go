package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corruptAndReopen damages UY.json with corrupt, reopens the
// directory, and asserts the file was quarantined; it returns the
// original healthy bytes and the reopened store so callers can assert
// the re-run restores them exactly.
func corruptAndReopen(t *testing.T, corrupt func(t *testing.T, path string)) ([]byte, *Store) {
	t.Helper()
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	if err := store.Put(testCountry("UY")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "UY.json")
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	corrupt(t, path)

	store, res := mustOpen(t, dir, testManifest(), Options{Resume: true})
	if len(res.Countries) != 0 {
		t.Fatalf("corrupt file loaded anyway: %+v", res.Countries)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "UY.json" {
		t.Fatalf("quarantined = %v, want [UY.json]", res.Quarantined)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in the load path: %v", err)
	}
	return healthy, store
}

// assertRedoRestores replays the country into the reopened store and
// asserts the re-run's bytes match the healthy original — quarantine
// plus redo is byte-identical self-healing.
func assertRedoRestores(t *testing.T, store *Store, healthy []byte) {
	t.Helper()
	if err := store.Put(testCountry("UY")); err != nil {
		t.Fatal(err)
	}
	redone, err := os.ReadFile(filepath.Join(store.dir, "UY.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(redone) != string(healthy) {
		t.Fatal("re-run checkpoint bytes differ from the pre-corruption original")
	}
}

func TestQuarantineTruncatedFile(t *testing.T) {
	healthy, store := corruptAndReopen(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o666); err != nil {
			t.Fatal(err)
		}
	})
	assertRedoRestores(t, store, healthy)
}

func TestQuarantineBitFlippedFile(t *testing.T) {
	healthy, store := corruptAndReopen(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one payload bit; the checksum catches it even when the
		// result is still valid JSON.
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	})
	assertRedoRestores(t, store, healthy)
}

func TestLeaseSecondOpenerRefused(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, testManifest(), Options{})
	_, _, err := Open(dir, testManifest(), Options{Resume: true})
	if err == nil || !strings.Contains(err.Error(), "leased") {
		t.Fatalf("second opener of a held slot: err = %v", err)
	}
}

func TestLeaseDistinctSlotsOfSameShapeShare(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, testManifest(), Options{Slot: 0, Slots: 2})
	mustOpen(t, dir, testManifest(), Options{Resume: true, Slot: 1, Slots: 2})

	// The same slot again is a live conflict.
	if _, _, err := Open(dir, testManifest(), Options{Resume: true, Slot: 1, Slots: 2}); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Fatalf("duplicate slot open: err = %v", err)
	}
	// A different sharding shape is refused outright.
	if _, _, err := Open(dir, testManifest(), Options{Resume: true, Slot: 0, Slots: 3}); err == nil || !strings.Contains(err.Error(), "leased by a 2-shard run") {
		t.Fatalf("cross-shape open: err = %v", err)
	}
}

func TestLeaseStaleTakenOverWithGenerationBump(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	store.Close()

	// Fabricate a lease left by a crashed holder: a PID far above any
	// live process, at generation 3.
	stale, err := json.Marshal(lease{PID: 1 << 30, Slot: 0, Slots: 1, Generation: 3})
	if err != nil {
		t.Fatal(err)
	}
	leasePath := filepath.Join(dir, "slot-0-of-1.lease")
	if err := os.WriteFile(leasePath, stale, 0o666); err != nil {
		t.Fatal(err)
	}

	store, _ = mustOpen(t, dir, testManifest(), Options{Resume: true})
	if store.generation != 4 {
		t.Fatalf("takeover generation = %d, want 4", store.generation)
	}
	raw, err := os.ReadFile(leasePath)
	if err != nil {
		t.Fatal(err)
	}
	var l lease
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	if l.PID != os.Getpid() || l.Generation != 4 {
		t.Fatalf("taken-over lease = %+v", l)
	}
}

func TestOpenSweepsOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, _ := mustOpen(t, dir, testManifest(), Options{})
	store.Close()
	for _, name := range []string{"US.json.tmp", "UY.json.s0.tmp", "NG.json.s1.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	mustOpen(t, dir, testManifest(), Options{Resume: true, Slot: 0, Slots: 2})
	for _, swept := range []string{"US.json.tmp", "UY.json.s0.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, swept)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep: %v", swept, err)
		}
	}
	// Another live slot's scoped temp may be an in-flight write; it
	// must survive.
	if _, err := os.Stat(filepath.Join(dir, "NG.json.s1.tmp")); err != nil {
		t.Fatalf("sibling slot's temp was swept: %v", err)
	}
}

func TestValidateOnlySkipsLeaseAndLoad(t *testing.T) {
	dir := t.TempDir()
	v, res, err := Open(dir, testManifest(), Options{ValidateOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Countries) != 0 || v.generation != 0 {
		t.Fatalf("validate-only loaded work or took a lease: %+v gen=%d", res, v.generation)
	}
	// The manifest was written, and no lease blocks a real opener.
	mustOpen(t, dir, testManifest(), Options{Resume: true})
	if _, _, err := Open(dir, testManifest(), Options{Resume: true, ValidateOnly: true}); err != nil {
		t.Fatalf("validate-only against a live lease: %v", err)
	}
}
