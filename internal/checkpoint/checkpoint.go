// Package checkpoint persists finished per-country work so a killed
// study can resume where it stopped instead of redoing everything —
// the durable-pipeline property the large hosting measurements this
// repo reproduces treat as table stakes (multi-week crawls are
// stopped, moved and resumed; redoing finished countries is the
// dominant waste).
//
// A checkpoint directory holds one manifest (the study parameters that
// must match for stored work to be reusable, and the file format) and
// one file per finished country carrying its records, coverage
// statistics, method tallies, failed hostnames with their lookup
// counts, and the crawl tally row — the few deterministic counts
// nothing else stored determines. A resume only loads: stored
// countries splice into the dataset as they are, and nothing is
// replayed into the study's caches. Records are stored
// pre-category: provider categories depend on the study-global
// continental span of each ASN, so they are assigned only once every
// country is in — the resuming run re-derives them, which is exactly
// what an uninterrupted run does.
//
// The directory is safe to share between shard processes: each opener
// holds a lease file naming its slot (slot i of n), its PID and a
// takeover generation, so two processes can only work the same
// directory when they hold distinct slots of the same sharding shape.
// A stale lease (dead PID) is taken over with a bumped generation;
// a live one is refused.
//
// Every write is atomic (temp file + rename) and durable (the temp
// file and the directory are fsynced before the country counts as
// persisted), so a kill or power loss mid-write leaves either the
// previous state or the new one, never a torn file. Country files
// carry a content checksum verified on load; a corrupt or truncated
// file is quarantined (renamed to `.corrupt`) and its country simply
// re-runs, instead of failing the whole resume. Checkpoint bytes are
// seed-deterministic: encoding/json sorts map keys, records are stored
// in their canonical per-country order, and nothing wall-clock is
// recorded.
//
// Files are written with encoding/json but read in a single pass: the
// envelope is framed byte-for-byte as Put writes it — any other
// spelling, even valid JSON with a matching checksum, is unparseable
// and quarantined — the checksum is taken over the body in place, and
// the body is walked once, its records decoded by internal/jsonrec
// with strings interned across the whole load. Records and the stats
// row are stored under the dataset types' json tags, the keys of the
// JSONL export, with zero optional fields omitted. Keys match case
// insensitively, so a file written before the tags existed (Go field
// names, every field present) loads to the same Country.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/jsonrec"
	"repro/internal/metrics"
)

// Manifest pins the study parameters a checkpoint directory belongs
// to. Resuming under any other parameters would splice incompatible
// work into the run, so Open refuses on mismatch. SkipTopsites is
// deliberately absent: topsites are never checkpointed (they re-run on
// resume), so the flag may differ between the killed and resuming run
// — and between a shard worker (which always skips them) and the
// assembly pass.
type Manifest struct {
	// Format is the country-file format the directory was written in,
	// always FormatVersion. A directory from before the field existed
	// decodes as 0, so Open refuses it with a MismatchError instead of
	// resuming it into a short ledger.
	Format            int      `json:"format"`
	Seed              int64    `json:"seed"`
	Scale             float64  `json:"scale"`
	Countries         []string `json:"countries"` // resolved study codes, sorted
	CrawlDepth        int      `json:"crawlDepth"`
	MaxURLsPerCrawl   int      `json:"maxURLsPerCrawl"`
	FaultProfile      string   `json:"faultProfile,omitempty"`
	FaultSeed         int64    `json:"faultSeed"`
	RetryAttempts     int      `json:"retryAttempts"`
	RetryBudget       int64    `json:"retryBudget"`
	TrustIPInfo       bool     `json:"trustIPInfo,omitempty"`
	GlobalThresholdMS float64  `json:"globalThresholdMS,omitempty"`
	DisableSAN        bool     `json:"disableSAN,omitempty"`
	TrendYears        int      `json:"trendYears,omitempty"`
	IPInfoErrorRate   float64  `json:"ipinfoErrorRate"`
	ManycastRecall    float64  `json:"manycastRecall"`
}

// FormatVersion is the country-file format this package writes: each
// country carries its crawl tally row.
const FormatVersion = 1

// HostOutcome records one hostname whose resolution failed, with the
// number of lookups the country issued for it — the country's share of
// the shared resolution cache's negative entries and hits (successful
// hosts need no separate entry: their lookups are counted from the
// records).
type HostOutcome struct {
	Host    string `json:"host"`
	Lookups int64  `json:"lookups,omitempty"`
}

// Country is one finished country's persisted state.
type Country struct {
	Code string `json:"code"`
	// Stats is the country's coverage-statistics row, exactly as the
	// dataset would carry it.
	Stats *dataset.CountryStats `json:"stats"`
	// Methods tallies the §3.3 classification outcomes (tld / domain /
	// san / discarded).
	Methods map[string]int `json:"methods,omitempty"`
	// Records are the country's annotated URL records in canonical
	// (URL-sorted) order, pre-category: Category and GovAS are zero
	// until the full study assigns them.
	Records []dataset.URLRecord `json:"records,omitempty"`
	// FailedHosts lists the hostnames this country tried to resolve
	// that failed, with their lookup counts, so the assembling run can
	// derive the resolution cache's accounting.
	FailedHosts []HostOutcome `json:"failedHosts,omitempty"`
	// Tally is the country's crawl tally row: retries by kind, fault
	// injections, frontier truncation and admissions per depth. The
	// rest of the country's deterministic ledger follows from Stats,
	// Methods, Records and FailedHosts, and the shared caches' share
	// from the whole study, so the assembling run derives it once.
	Tally metrics.CrawlTally `json:"tally"`
}

// Options parameterises Open.
type Options struct {
	// Resume loads stored countries instead of refusing a non-empty
	// directory. A missing manifest degrades to a fresh start, so
	// Resume is safe to pass unconditionally.
	Resume bool
	// Slot and Slots declare the opener's shard position: slot Slot of
	// Slots shares the directory with the other slots of the same
	// shape. The zero value (Slots <= 0) means exclusive single-process
	// use — slot 0 of 1.
	Slot, Slots int
	// ValidateOnly checks (or, fresh, writes) the manifest without
	// acquiring a lease or loading countries — the supervisor's
	// pre-flight, run before any worker exists.
	ValidateOnly bool
}

// LoadResult is what Open found in the directory.
type LoadResult struct {
	// Countries are the stored countries that loaded cleanly, in
	// sorted-code order.
	Countries []Country
	// Quarantined lists the country files that failed verification
	// (unparseable, checksum mismatch, code/filename mismatch) and were
	// renamed to `.corrupt`; their countries must re-run.
	Quarantined []string
}

// Store writes per-country checkpoints into one directory.
type Store struct {
	dir        string
	slot       int
	slots      int
	generation int
	leaseName  string // "" when no lease is held (ValidateOnly)
	tmpSuffix  string
}

const manifestName = "manifest.json"

// lease is the on-disk claim one process holds on one slot of a
// checkpoint directory.
type lease struct {
	PID        int `json:"pid"`
	Slot       int `json:"slot"`
	Slots      int `json:"slots"`
	Generation int `json:"generation"`
}

// held tracks the lease files this process currently holds, so a
// re-open within the same process (a test killing a run by cancelling
// its context, then resuming) can tell its own released leases from a
// genuinely live holder with the same PID.
var (
	heldMu sync.Mutex
	held   = map[string]bool{}
)

// slotTmpRe matches the slot-scoped temp suffix writeAtomic uses, so
// the orphan sweep can tell another live slot's in-flight write from
// debris.
var slotTmpRe = regexp.MustCompile(`\.s\d+\.tmp$`)

// Open prepares a checkpoint directory. Without Resume the directory
// must not already contain a run (a leftover manifest is an error —
// refusing beats silently clobbering finished work); the manifest is
// written and an empty store returned. With Resume an existing
// manifest must match m field-for-field and every stored country is
// loaded, quarantining the ones that fail verification. Unless
// ValidateOnly is set the opener takes a lease on its slot, refusing
// directories leased by a live process of a different sharding shape
// or by a live holder of the same slot.
func Open(dir string, m Manifest, o Options) (*Store, *LoadResult, error) {
	if o.Slots <= 0 {
		o.Slot, o.Slots = 0, 1
	}
	if o.Slot < 0 || o.Slot >= o.Slots {
		return nil, nil, fmt.Errorf("checkpoint: slot %d out of range for %d slots", o.Slot, o.Slots)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir: dir, slot: o.Slot, slots: o.Slots,
		tmpSuffix: fmt.Sprintf(".s%d.tmp", o.Slot),
	}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	resumable := false
	switch {
	case err == nil:
		if !o.Resume {
			return nil, nil, fmt.Errorf("checkpoint: %s already holds a run; pass resume to continue it or choose an empty directory", dir)
		}
		var stored Manifest
		if err := json.Unmarshal(raw, &stored); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: manifest: %w", err)
		}
		if err := match(stored, m); err != nil {
			return nil, nil, err
		}
		resumable = true
	case os.IsNotExist(err):
		if err := s.writeAtomic(manifestName, m); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}

	if o.ValidateOnly {
		return s, &LoadResult{}, nil
	}
	if err := s.acquireLease(); err != nil {
		return nil, nil, err
	}
	if err := s.sweepOrphans(); err != nil {
		s.Close()
		return nil, nil, err
	}
	if !resumable {
		return s, &LoadResult{}, nil
	}
	res, err := s.loadAll()
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, res, nil
}

// Generation reports the takeover generation of the held lease: 1 for
// a first acquisition, incremented each time a stale lease for the
// same slot is taken over. Zero when no lease is held.
func (s *Store) Generation() int { return s.generation }

// Close releases the store's lease, if it holds one. Safe to call on
// a store that never took a lease, and idempotent.
func (s *Store) Close() error {
	if s == nil || s.leaseName == "" {
		return nil
	}
	path := filepath.Join(s.dir, s.leaseName)
	heldMu.Lock()
	delete(held, path)
	heldMu.Unlock()
	s.leaseName = ""
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// acquireLease claims this store's slot. Every live lease in the
// directory must belong to the same sharding shape and a different
// slot; stale leases for this slot are taken over with a bumped
// generation. Creation is O_EXCL, so two racing openers of one slot
// cannot both win.
func (s *Store) acquireLease() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	gen := 1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".lease") {
			continue
		}
		path := filepath.Join(s.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // released between ReadDir and ReadFile
			}
			return err
		}
		var l lease
		if err := json.Unmarshal(raw, &l); err != nil || l.Slots <= 0 {
			// A torn lease can only be debris from a crash between
			// create and write; its holder is gone.
			os.Remove(path)
			continue
		}
		if s.leaseLive(l, path) {
			if l.Slots != s.slots {
				return fmt.Errorf("checkpoint: %s is leased by a %d-shard run (slot %d, pid %d); cannot open it as slot %d of %d", s.dir, l.Slots, l.Slot, l.PID, s.slot, s.slots)
			}
			if l.Slot == s.slot {
				return fmt.Errorf("checkpoint: slot %d of %d in %s is already leased by pid %d", s.slot, s.slots, s.dir, l.PID)
			}
			continue // a sibling slot of our shape — exactly the sharing leases exist for
		}
		// Stale: the holder is dead. Take over our own slot's lease
		// (bumping the generation); leave siblings' stale leases for
		// their restarted slots to reclaim.
		if l.Slot == s.slot && l.Slots == s.slots {
			if l.Generation >= gen {
				gen = l.Generation + 1
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}

	s.leaseName = fmt.Sprintf("slot-%d-of-%d.lease", s.slot, s.slots)
	path := filepath.Join(s.dir, s.leaseName)
	data, err := json.Marshal(lease{PID: os.Getpid(), Slot: s.slot, Slots: s.slots, Generation: gen})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		s.leaseName = ""
		if os.IsExist(err) {
			return fmt.Errorf("checkpoint: slot %d of %d in %s was leased concurrently", s.slot, s.slots, s.dir)
		}
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		s.leaseName = ""
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.leaseName = ""
		return err
	}
	if err := f.Close(); err != nil {
		s.leaseName = ""
		return err
	}
	s.generation = gen
	heldMu.Lock()
	held[path] = true
	heldMu.Unlock()
	return nil
}

// leaseLive reports whether the lease's holder is still running. A
// lease naming our own PID is live only while this process actually
// holds it (a closed store's lease with our PID is debris, not a
// holder).
func (s *Store) leaseLive(l lease, path string) bool {
	if l.PID == os.Getpid() {
		heldMu.Lock()
		defer heldMu.Unlock()
		return held[path]
	}
	return pidAlive(l.PID)
}

// pidAlive probes a foreign PID with signal 0. EPERM means the
// process exists but belongs to someone else — alive for our purposes.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// sweepOrphans removes temp files a killed writer left behind: this
// slot's own slot-scoped temps plus any unscoped `*.tmp` debris (the
// lease check guarantees no live unscoped writer can coexist with a
// lease holder). Another slot's scoped temp may be an in-flight write,
// so it is left alone.
func (s *Store) sweepOrphans() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if m := slotTmpRe.FindString(name); m != "" && m != s.tmpSuffix {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// MismatchError reports the first manifest field on which a checkpoint
// directory diverges from the configuration trying to use it. It is a
// typed error so callers layered far above Open — the serving daemon's
// /admin/reload, which must answer a mismatched directory with a 409
// naming the field — can recover Field/Stored/Want with errors.As
// instead of parsing the message.
type MismatchError struct {
	Field  string // json name of the first divergent manifest field
	Stored string // the directory's value, rendered
	Want   string // the requesting configuration's value, rendered
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: manifest mismatch: %s: directory holds %s, run wants %s",
		e.Field, e.Stored, e.Want)
}

// match compares the stored manifest against the requested one
// field-by-field, naming the first divergent parameter and both
// values.
func match(stored, want Manifest) error {
	sv := reflect.ValueOf(stored)
	wv := reflect.ValueOf(want)
	t := sv.Type()
	for i := 0; i < t.NumField(); i++ {
		if reflect.DeepEqual(sv.Field(i).Interface(), wv.Field(i).Interface()) {
			continue
		}
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" {
			name = t.Field(i).Name
		}
		return &MismatchError{
			Field:  name,
			Stored: fmt.Sprint(sv.Field(i).Interface()),
			Want:   fmt.Sprint(wv.Field(i).Interface()),
		}
	}
	return nil
}

// envelope wraps a stored country with a content checksum, so load can
// tell a truncated or bit-flipped file from real state.
type envelope struct {
	SHA256  string          `json:"sha256"`
	Country json.RawMessage `json:"country"`
}

// Put persists one finished country atomically and durably.
func (s *Store) Put(c Country) error {
	body, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", c.Code, err)
	}
	sum := sha256.Sum256(body)
	return s.writeAtomic(c.Code+".json", envelope{
		SHA256:  hex.EncodeToString(sum[:]),
		Country: body,
	})
}

// writeAtomic marshals v, fsyncs it into a slot-scoped temp file,
// renames it into place, and fsyncs the directory — so a kill or power
// loss at any point leaves either the previous state or the new one,
// durably, never a torn file.
func (s *Store) writeAtomic(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	tmp := filepath.Join(s.dir, name+s.tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadAll reads every stored country, verifying each file's checksum
// and code/filename agreement. A file that fails verification is
// quarantined — renamed to `.corrupt` — and reported, not fatal: its
// country re-runs, which is self-healing by construction. The caller
// assembles countries by code; os.ReadDir sorts by filename, so they
// arrive in sorted-code order. One record decoder serves the whole load, so
// strings repeated across countries are interned once.
func (s *Store) loadAll() (*LoadResult, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	res := &LoadResult{}
	dec := jsonrec.NewDecoder()
	for _, e := range entries {
		name := e.Name()
		if name == manifestName || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, err
		}
		c, verr := decodeCountry(dec, raw, name)
		if verr != nil {
			if err := s.quarantine(name); err != nil {
				return nil, fmt.Errorf("checkpoint: quarantining %s (%v): %w", name, verr, err)
			}
			res.Quarantined = append(res.Quarantined, name)
			continue
		}
		res.Countries = append(res.Countries, c)
	}
	return res, nil
}

// The envelope framing exactly as Put writes it: encoding/json emits
// the two envelope fields in declaration order with no whitespace, and
// writeAtomic appends one newline.
const (
	envHead = `{"sha256":"`
	envMid  = `","country":`
	envTail = "}\n"
	hexLen  = 2 * sha256.Size
)

// countryKeys are Country's json keys, indexed like the destinations
// decodeCountry assigns them to.
var countryKeys = []string{"code", "stats", "methods", "records", "failedHosts", "tally"}

const recordsKey = 3 // countryKeys index of "records"

// decodeCountry verifies and unpacks one stored country file. The
// envelope must be byte-for-byte what Put writes; anything else is
// unparseable. The checksum is taken over the body in place, and the
// body is then walked once: records through dec, the small remaining
// fields through encoding/json on their own bytes.
func decodeCountry(dec *jsonrec.Decoder, raw []byte, name string) (Country, error) {
	n := len(raw)
	if n < len(envHead)+hexLen+len(envMid)+len(envTail) ||
		string(raw[:len(envHead)]) != envHead ||
		string(raw[len(envHead)+hexLen:len(envHead)+hexLen+len(envMid)]) != envMid ||
		string(raw[n-len(envTail):]) != envTail {
		return Country{}, errors.New("unparseable: not a country envelope")
	}
	stored := raw[len(envHead) : len(envHead)+hexLen]
	body := raw[len(envHead)+hexLen+len(envMid) : n-len(envTail)]
	sum := sha256.Sum256(body)
	var want [hexLen]byte
	hex.Encode(want[:], sum[:])
	if string(stored) != string(want[:]) {
		return Country{}, errors.New("content checksum mismatch")
	}
	var c Country
	dst := [...]any{&c.Code, &c.Stats, &c.Methods, nil, &c.FailedHosts, &c.Tally}
	err := dec.Object(body, countryKeys, func(f int, val []byte) (int, error) {
		if f == recordsKey {
			recs, n, err := dec.Records(val)
			c.Records = recs
			return n, err
		}
		n, err := jsonrec.Skip(val)
		if err != nil {
			return 0, err
		}
		return n, json.Unmarshal(val[:n], dst[f])
	})
	if err != nil {
		return Country{}, fmt.Errorf("unparseable country: %w", err)
	}
	if c.Code == "" || c.Code+".json" != name {
		return Country{}, fmt.Errorf("stored code %q does not match filename", c.Code)
	}
	return c, nil
}

// quarantine renames a failed country file out of the load path,
// keeping its bytes for post-mortems.
func (s *Store) quarantine(name string) error {
	return os.Rename(filepath.Join(s.dir, name), filepath.Join(s.dir, name+".corrupt"))
}
