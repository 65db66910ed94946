package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/world"
)

// lgDataset mirrors the serve package's hand-built study shape; the
// variant perturbs bytes so each variant hashes to its own version.
func lgDataset(variant int64, n int) *dataset.Dataset {
	countries := []struct {
		code   string
		region world.Region
	}{{"US", world.NA}, {"DE", world.ECA}, {"FR", world.ECA}, {"BR", world.LAC}}
	ds := &dataset.Dataset{Scale: 0.01, Seed: variant}
	for i := 0; i < n; i++ {
		c := countries[i%len(countries)]
		cat := world.Categories[i%len(world.Categories)]
		ds.Records = append(ds.Records, dataset.URLRecord{
			URL:     fmt.Sprintf("https://gov%d.%s/p/%d", i, c.code, variant),
			Host:    fmt.Sprintf("gov%d.%s", i%8, c.code),
			Country: c.code, Region: c.region,
			Bytes: int64(900 + i*31 + int(variant)*17), Method: "tld",
			IP:  netip.AddrFrom4([4]byte{198, 51, byte(100 + i%4), byte(1 + i%250)}),
			ASN: 64500 + i%6, Org: fmt.Sprintf("Org%d", i%6),
			RegCountry: c.code, ServeCountry: c.code, GeoMethod: "AP",
			Category: cat, GovAS: cat == world.CatGovtSOE,
		})
	}
	return ds
}

func lgSnapshot(t *testing.T, variant int64) *serve.Snapshot {
	t.Helper()
	snap, err := serve.NewSnapshotWorkers(lgDataset(variant, 80), fmt.Sprintf("test:%d", variant), 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// startServer serves snapA with a reloader that always swaps to snapB.
func startServer(t *testing.T, snapA, snapB *serve.Snapshot) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{
		Snapshot: snapA,
		Workers:  8,
		Reloader: func(context.Context, serve.Source) (*serve.Snapshot, error) { return snapB, nil },
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadgenVerifiesAcrossReload drives the full default mix against
// a live server with a snapshot swap mid-run: zero failed requests,
// zero body mismatches, and every response accounted to one of the two
// legal versions.
func TestLoadgenVerifiesAcrossReload(t *testing.T) {
	snapA, snapB := lgSnapshot(t, 1), lgSnapshot(t, 2)
	ts := startServer(t, snapA, snapB)

	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Requests:    600,
		Concurrency: 8,
		Seed:        7,
		Verify:      []*serve.Snapshot{snapA, snapB},
		ReloadAt:    300,
		ReloadQuery: "jsonl=ignored-by-stub",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Mismatches != 0 {
		t.Fatalf("failed=%d mismatches=%d samples=%v", res.Failed, res.Mismatches, res.MismatchSamples)
	}
	if res.ReloadStatus != 200 {
		t.Fatalf("reload status = %d", res.ReloadStatus)
	}
	total := 0
	for v := range res.ByVersion {
		if v != snapA.Version() && v != snapB.Version() {
			t.Fatalf("response claimed unknown version %q", v)
		}
		total += res.ByVersion[v]
	}
	if total != 600 {
		t.Fatalf("by_version accounts for %d of 600 requests", total)
	}
	if res.Latency.Count != 600 {
		t.Fatalf("latency histogram holds %d observations", res.Latency.Count)
	}
	if res.ServerStats == nil || res.CacheHitRate <= 0 {
		t.Fatalf("server stats missing or cold cache: %+v", res.ServerStats)
	}
	// Roughly a quarter of the plan goes out conditional; the tags are
	// computed from snapA, so only requests landing before the swap can
	// revalidate. Both halves must exist in a 600-request reload run.
	if res.Conditional == 0 {
		t.Fatal("no conditional requests were sent")
	}
	if res.NotModified == 0 {
		t.Fatal("no conditional request was answered 304 before the reload")
	}
	if res.NotModified >= res.Conditional {
		t.Fatalf("all %d conditionals answered 304 despite the version swap", res.Conditional)
	}
	if res.ServerStats.NotModified != int64(res.NotModified) {
		t.Fatalf("daemon counted %d 304s, client saw %d", res.ServerStats.NotModified, res.NotModified)
	}
}

// TestLoadgenMixAccountingIsShapeInvariant pins the determinism
// contract: for a fixed seed the planned request mix is byte-identical
// no matter the client concurrency, and both runs verify cleanly.
func TestLoadgenMixAccountingIsShapeInvariant(t *testing.T) {
	snapA, snapB := lgSnapshot(t, 1), lgSnapshot(t, 2)

	mixJSON := func(concurrency int) []byte {
		ts := startServer(t, snapA, snapB)
		res, err := Run(context.Background(), Config{
			BaseURL:     ts.URL,
			Requests:    400,
			Concurrency: concurrency,
			Seed:        99,
			Verify:      []*serve.Snapshot{snapA, snapB},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Mismatches != 0 {
			t.Fatalf("concurrency %d: failed=%d mismatches=%d samples=%v",
				concurrency, res.Failed, res.Mismatches, res.MismatchSamples)
		}
		// No reload in this run: the daemon never leaves snapA, so
		// every conditional request must revalidate, and the
		// conditional split itself is part of the deterministic plan.
		if res.Conditional == 0 || res.NotModified != res.Conditional {
			t.Fatalf("concurrency %d: conditional=%d not_modified=%d, want all 304",
				concurrency, res.Conditional, res.NotModified)
		}
		body, err := json.Marshal(res.PlannedMix)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	serial := mixJSON(1)
	wide := mixJSON(8)
	if string(serial) != string(wide) {
		t.Fatalf("planned mix depends on concurrency:\n 1: %s\n 8: %s", serial, wide)
	}
	n := 0
	var mix map[string]int
	if err := json.Unmarshal(serial, &mix); err != nil {
		t.Fatal(err)
	}
	for _, c := range mix {
		n += c
	}
	if n != 400 {
		t.Fatalf("planned mix accounts for %d of 400 requests", n)
	}
}

// TestDefaultMixCoversEveryEndpoint keeps the default mix honest: any
// endpoint added to the API must join the load mix (or be excluded
// here on purpose).
func TestDefaultMixCoversEveryEndpoint(t *testing.T) {
	snap := lgSnapshot(t, 1)
	covered := map[string]bool{}
	for _, e := range DefaultMix([]*serve.Snapshot{snap}) {
		covered[e.Endpoint] = true
	}
	for _, name := range serve.EndpointNames() {
		if !covered[name] {
			t.Fatalf("endpoint %s missing from the default mix", name)
		}
	}
}
