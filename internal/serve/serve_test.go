package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/world"
)

// testDataset hand-builds a small but fully-featured study: four
// countries across three regions, two EU members, cross-border and
// domestic serving, a multi-country global provider, an anycast
// address, and a topsite baseline — enough for every endpoint to
// produce non-trivial output. variant perturbs the byte sizes so
// different variants export different bytes and therefore hash to
// different versions.
func testDataset(variant int64, n int) *dataset.Dataset {
	type site struct {
		country string
		region  world.Region
		cat     world.Category
		asn     int
		org     string
		reg     string // WHOIS registration country
		srv     string // validated serving country
		anycast bool
	}
	sites := []site{
		{"US", world.NA, world.CatGovtSOE, 64500, "US Gov Net", "US", "US", false},
		{"US", world.NA, world.Cat3PGlobal, 13335, "GlobalCDN", "US", "US", true},
		{"DE", world.ECA, world.Cat3PGlobal, 13335, "GlobalCDN", "US", "US", true},
		{"DE", world.ECA, world.CatGovtSOE, 64501, "DE Gov Net", "DE", "DE", false},
		{"FR", world.ECA, world.Cat3PLocal, 64502, "FR Hoster", "FR", "DE", false},
		{"FR", world.ECA, world.CatGovtSOE, 64503, "FR Gov Net", "FR", "FR", false},
		{"BR", world.LAC, world.Cat3PRegional, 64504, "LatAm Host", "US", "US", false},
		{"BR", world.LAC, world.CatGovtSOE, 64505, "BR Gov Net", "BR", "BR", false},
	}
	ds := &dataset.Dataset{Scale: 0.01, Seed: variant}
	for i := 0; i < n; i++ {
		s := sites[i%len(sites)]
		ip := netip.AddrFrom4([4]byte{192, 0, byte(2 + i%len(sites)), byte(1 + (i/len(sites))%200)})
		ds.Records = append(ds.Records, dataset.URLRecord{
			URL:          fmt.Sprintf("https://gov%d.%s/page/%d", i, s.country, variant),
			Host:         fmt.Sprintf("gov%d.%s", i%len(sites), s.country),
			Country:      s.country,
			Region:       s.region,
			Bytes:        int64(1000 + i*37 + int(variant)*13),
			Method:       "tld",
			IP:           ip,
			ASN:          s.asn,
			Org:          s.org,
			RegCountry:   s.reg,
			GovAS:        s.cat == world.CatGovtSOE,
			Anycast:      s.anycast,
			ServeCountry: s.srv,
			GeoMethod:    "AP",
			Category:     s.cat,
		})
	}
	ds.Topsites = append(ds.Topsites, dataset.URLRecord{
		URL: "https://popular.US/", Host: "popular.US", Country: "US",
		Region: world.NA, Bytes: 5000, Category: world.Cat3PGlobal,
		ASN: 13335, Org: "GlobalCDN", RegCountry: "US", ServeCountry: "US", GeoMethod: "AP",
	})
	ds.PerCountry = map[string]*dataset.CountryStats{
		"US": {Country: "US", Region: world.NA, LandingURLs: 2, Attempted: 4, Retries: 1},
		"DE": {Country: "DE", Region: world.ECA, LandingURLs: 2, Attempted: 2},
	}
	return ds
}

func newTestSnapshot(t *testing.T, variant int64, n int) *Snapshot {
	t.Helper()
	snap, err := NewSnapshotWorkers(testDataset(variant, n), fmt.Sprintf("test:variant=%d", variant), 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// endpointCalls enumerates one canonical query per endpoint plus the
// parameterized variants — the full surface the e2e and chaos tests
// sweep.
func endpointCalls(snap *Snapshot) []struct{ Name, Query string } {
	calls := []struct{ Name, Query string }{}
	for _, name := range EndpointNames() {
		switch name {
		case "fig9", "matrix":
			calls = append(calls,
				struct{ Name, Query string }{name, "kind=registration"},
				struct{ Name, Query string }{name, "kind=location"})
		case "country":
			for _, c := range snap.Countries() {
				calls = append(calls, struct{ Name, Query string }{name, "code=" + c})
			}
		default:
			calls = append(calls, struct{ Name, Query string }{name, ""})
		}
	}
	return calls
}

func TestEveryEndpointRenders(t *testing.T) {
	snap := newTestSnapshot(t, 1, 64)
	for _, call := range endpointCalls(snap) {
		q, _ := url.ParseQuery(call.Query)
		body, status := snap.Render(call.Name, q)
		if status != 200 {
			t.Fatalf("%s?%s: status %d: %s", call.Name, call.Query, status, body)
		}
		var env struct {
			Version  string          `json:"version"`
			Endpoint string          `json:"endpoint"`
			Data     json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: bad body: %v", call.Name, err)
		}
		if env.Version != snap.Version() || env.Endpoint != call.Name {
			t.Fatalf("%s: envelope says %s/%s", call.Name, env.Version, env.Endpoint)
		}
		if len(env.Data) == 0 || string(env.Data) == "null" {
			t.Fatalf("%s: empty data", call.Name)
		}
	}
}

func TestParamValidation(t *testing.T) {
	snap := newTestSnapshot(t, 1, 16)
	cases := []struct {
		name, query string
		status      int
		code        string
	}{
		{"nonsense", "", 404, "unknown-endpoint"},
		{"fig2", "bogus=1", 400, "unknown-param"},
		{"fig9", "kind=sideways", 400, "bad-param"},
		{"country", "", 400, "missing-param"},
		{"country", "code=ZZ", 404, "unknown-country"},
	}
	for _, c := range cases {
		q, _ := url.ParseQuery(c.query)
		body, status := snap.Render(c.name, q)
		if status != c.status {
			t.Fatalf("%s?%s: status %d, want %d", c.name, c.query, status, c.status)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("%s?%s: bad error envelope: %v", c.name, c.query, err)
		}
		if env.Error.Code != c.code {
			t.Fatalf("%s?%s: code %q, want %q", c.name, c.query, env.Error.Code, c.code)
		}
	}
}

// TestVersionIsContentDerived pins that equal datasets hash to equal
// versions and different datasets to different ones.
func TestVersionIsContentDerived(t *testing.T) {
	a1 := newTestSnapshot(t, 1, 32)
	a2 := newTestSnapshot(t, 1, 32)
	b := newTestSnapshot(t, 2, 32)
	if a1.Version() != a2.Version() {
		t.Fatalf("same dataset, different versions: %s vs %s", a1.Version(), a2.Version())
	}
	if a1.Version() == b.Version() {
		t.Fatalf("different datasets share version %s", a1.Version())
	}
}

// TestCacheDeterministicBodies hammers the same endpoint set from many
// goroutines in shuffled orders: every response for (version, endpoint,
// params) must be byte-identical, and the cache must count exactly one
// miss per distinct key.
func TestCacheDeterministicBodies(t *testing.T) {
	snap := newTestSnapshot(t, 3, 128)
	reg := &metrics.Registry{}
	calls := endpointCalls(snap)

	// Reference bodies from a fresh identical snapshot, rendered
	// serially — the concurrent responses must match these bytes.
	ref := newTestSnapshot(t, 3, 128)
	want := map[string][]byte{}
	for _, call := range calls {
		q, _ := url.ParseQuery(call.Query)
		body, _ := ref.Render(call.Name, q)
		want[call.Name+"?"+call.Query] = body
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range calls {
				call := calls[(i+w*7)%len(calls)] // different order per worker
				q, _ := url.ParseQuery(call.Query)
				body, status := snap.respond(call.Name, q, &reg.Serve)
				if status != 200 || !bytes.Equal(body, want[call.Name+"?"+call.Query]) {
					select {
					case errs <- fmt.Sprintf("%s?%s diverged (status %d)", call.Name, call.Query, status):
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	hits, misses := reg.Serve.CacheHits.Load(), reg.Serve.CacheMisses.Load()
	if misses != int64(len(calls)) {
		t.Fatalf("misses = %d, want one per distinct key (%d)", misses, len(calls))
	}
	if hits+misses != int64(workers*len(calls)) {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*len(calls))
	}
}

// TestCacheCoalesceUnderStampede pins the single-flight behaviour
// deterministically: with the cache entry's fill held open, every
// concurrent requester must be counted as a coalesced hit and then
// receive the filled body — no second render, no divergent bytes.
func TestCacheCoalesceUnderStampede(t *testing.T) {
	snap := newTestSnapshot(t, 4, 64)
	reg := &metrics.Registry{}
	ep := endpointIndex["fig2"]
	key := cacheKey("fig2", nil)

	// Install the entry and start its fill, gated on release, exactly
	// as the first requester would.
	e := &cacheEntry{}
	snap.mu.Lock()
	snap.cache[key] = e
	snap.mu.Unlock()
	release := make(chan struct{})
	entered := make(chan struct{})
	var fill sync.WaitGroup
	fill.Add(1)
	go func() {
		defer fill.Done()
		e.once.Do(func() {
			close(entered)
			<-release
			e.body, e.status = snap.renderFresh(ep, nil)
			e.done.Store(true)
		})
	}()
	// Only start the stampede once the gated fill owns the once —
	// otherwise a requester could win it and fill ungated.
	<-entered

	const stampede = 10
	var wg sync.WaitGroup
	bodies := make([][]byte, stampede)
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _ = snap.respond("fig2", nil, &reg.Serve)
		}(i)
	}
	// Hit accounting happens before a requester blocks on the
	// in-flight fill; the fill cannot complete until release, so every
	// recorded hit observed done == false. Wait for all of them, then
	// let the fill finish.
	for reg.Serve.CacheHits.Load() < stampede {
		runtime.Gosched()
	}
	close(release)
	fill.Wait()
	wg.Wait()

	if co := reg.Serve.CacheCoalesced.Load(); co != stampede {
		t.Fatalf("coalesced = %d, want %d", co, stampede)
	}
	if misses := reg.Serve.CacheMisses.Load(); misses != 0 {
		t.Fatalf("misses = %d, want 0 (entry pre-created)", misses)
	}
	for i := 1; i < stampede; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("stampede bodies diverge at %d", i)
		}
	}
}

// flip between two snapshots as a stub reloader.
func flipReloader(snaps ...*Snapshot) ReloadFunc {
	i := 0
	var mu sync.Mutex
	return func(context.Context, Source) (*Snapshot, error) {
		mu.Lock()
		defer mu.Unlock()
		i++
		return snaps[i%len(snaps)], nil
	}
}

// TestChaosReloadUnderLoad hammers every endpoint from many goroutines
// while snapshots swap concurrently. Every response must be internally
// consistent with exactly one version — body bytes equal to that
// version's render — and after the final swap settles the cache must
// never serve the previous version.
func TestChaosReloadUnderLoad(t *testing.T) {
	snapA := newTestSnapshot(t, 1, 96)
	snapB := newTestSnapshot(t, 2, 96)
	srv := New(Config{Snapshot: snapA, Workers: 8, Reloader: flipReloader(snapA, snapB)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Expected bodies per version, from fresh identical snapshots so
	// the server's own cache cannot mask a rendering difference.
	expected := map[string]map[string][]byte{}
	for _, snap := range []*Snapshot{newTestSnapshot(t, 1, 96), newTestSnapshot(t, 2, 96)} {
		perCall := map[string][]byte{}
		for _, call := range endpointCalls(snap) {
			q, _ := url.ParseQuery(call.Query)
			body, _ := snap.Render(call.Name, q)
			perCall[call.Name+"?"+call.Query] = body
		}
		expected[snap.Version()] = perCall
	}

	calls := endpointCalls(snapA)
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				call := calls[(r+w*5)%len(calls)]
				u := ts.URL + "/api/" + call.Name
				if call.Query != "" {
					u += "?" + call.Query
				}
				res, err := http.Get(u)
				if err != nil {
					errs <- err.Error()
					return
				}
				body, _ := io.ReadAll(res.Body)
				res.Body.Close()
				version := res.Header.Get("X-Dataset-Version")
				perCall, ok := expected[version]
				if !ok {
					errs <- fmt.Sprintf("unknown version %q", version)
					return
				}
				if want := perCall[call.Name+"?"+call.Query]; !bytes.Equal(body, want) {
					errs <- fmt.Sprintf("%s?%s: body not consistent with version %s", call.Name, call.Query, version)
					return
				}
			}
		}(w)
	}
	// Swap concurrently with the load above.
	for i := 0; i < 20; i++ {
		if _, err := srv.Reload(context.Background(), Source{Kind: "jsonl", Path: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}

	// Settle on a known snapshot: the very next response must carry
	// its version — the per-snapshot cache cannot serve a stale one.
	final, err := srv.Reload(context.Background(), Source{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(ts.URL + "/api/fig2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if v := res.Header.Get("X-Dataset-Version"); v != final.Version() {
		t.Fatalf("after final swap: version %q, want %q", v, final.Version())
	}
	q := url.Values{}
	if want, _ := final.Render("fig2", q); !bytes.Equal(body, want) {
		t.Fatal("after final swap: body does not match the final snapshot")
	}
	if reloads := srv.Registry().Serve.Reloads.Load(); reloads != 21 {
		t.Fatalf("reload counter = %d, want 21", reloads)
	}
}

// TestReloadGuards pins the typed reload failure surface: a checkpoint
// directory whose manifest diverges from the requesting configuration
// answers 409 naming the first divergent field; a corrupt directory
// answers 422; in both cases the old snapshot keeps serving.
func TestReloadGuards(t *testing.T) {
	snapA := newTestSnapshot(t, 1, 32)
	stored := checkpoint.Manifest{Seed: 1, Scale: 0.5, Countries: []string{"US"}}
	want := checkpoint.Manifest{Seed: 2, Scale: 0.5, Countries: []string{"US"}}

	mismatchDir := t.TempDir()
	if _, _, err := checkpoint.Open(mismatchDir, stored, checkpoint.Options{ValidateOnly: true}); err != nil {
		t.Fatal(err)
	}
	corruptDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(corruptDir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	reloader := func(_ context.Context, src Source) (*Snapshot, error) {
		if src.Kind != "checkpoint" {
			return nil, errors.New("test reloader handles checkpoints only")
		}
		if _, _, err := checkpoint.Open(src.Path, want, checkpoint.Options{Resume: true, ValidateOnly: true}); err != nil {
			return nil, err
		}
		return newTestSnapshot(t, 2, 32), nil
	}
	srv := New(Config{Snapshot: snapA, Reloader: reloader})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(query string) (int, errorEnvelope) {
		res, err := http.Post(ts.URL+"/admin/reload?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var env errorEnvelope
		if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, env
	}

	status, env := post("checkpoint=" + mismatchDir)
	if status != http.StatusConflict {
		t.Fatalf("manifest mismatch: status %d, want 409", status)
	}
	if env.Error == nil || env.Error.Code != "manifest-mismatch" || env.Error.Field != "seed" {
		t.Fatalf("manifest mismatch: error %+v, want code=manifest-mismatch field=seed", env.Error)
	}
	if env.Error.Stored != "1" || env.Error.Want != "2" {
		t.Fatalf("manifest mismatch: stored/want = %q/%q", env.Error.Stored, env.Error.Want)
	}

	status, env = post("checkpoint=" + corruptDir)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt checkpoint: status %d, want 422", status)
	}
	if env.Error == nil || env.Error.Code != "load-failed" {
		t.Fatalf("corrupt checkpoint: error %+v, want code=load-failed", env.Error)
	}

	if status, env = post(""); status != 400 || env.Error.Code != "missing-source" {
		t.Fatalf("missing source: %d/%+v", status, env.Error)
	}
	if status, env = post("jsonl=a&checkpoint=b"); status != 400 || env.Error.Code != "ambiguous-source" {
		t.Fatalf("ambiguous source: %d/%+v", status, env.Error)
	}

	// Through every failure the old snapshot kept serving.
	res, err := http.Get(ts.URL + "/api/fig2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if v := res.Header.Get("X-Dataset-Version"); v != snapA.Version() {
		t.Fatalf("old snapshot gone: serving %q, want %q", v, snapA.Version())
	}
	if fails := srv.Registry().Serve.ReloadFailures.Load(); fails != 2 {
		t.Fatalf("reload failures = %d, want 2 (param errors never reach the reloader)", fails)
	}
}

// TestShutdownDrains starts a real listener, parks a request in
// flight, and shuts down: the in-flight request must complete, new
// requests must be refused, and Serve must return cleanly.
func TestShutdownDrains(t *testing.T) {
	snap := newTestSnapshot(t, 1, 64)
	srv := New(Config{Snapshot: snap, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/api/fig5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = http.Get(ts.URL + "/api/fig5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: status %d, want 503", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown health: status %d, want 503", res.StatusCode)
	}
}
