package probing

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestGeolocationCachesUnderRace hammers both verdict caches from many
// goroutines sharing a small address set — the worst case for the
// single-flight maps — and checks three things under -race: no data
// race, every goroutine observes the same verdict per key, and each
// cache holds exactly one entry per distinct key regardless of
// interleaving. The coalesce counters are wired in so their runtime
// recording races too.
func TestGeolocationCachesUnderRace(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 8
	)
	run := func() (map[string]Verdict, int, int) {
		tw := setup(t)
		var gm metrics.GeoMetrics
		tw.prober.UnicastCoalesced = &gm.Unicast.Coalesced
		tw.prober.AnycastCoalesced = &gm.Anycast.Coalesced

		uniAddrs := benchAddrs(tw, false, 8)
		anyAddrs := benchAddrs(tw, true, 4)
		vantages := []string{"US", "DE", "BR", "JP"}

		verdicts := make([]map[string]Verdict, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := map[string]Verdict{}
				for r := 0; r < rounds; r++ {
					for _, a := range uniAddrs {
						got["uni/"+a.String()] = tw.prober.GeolocateUnicast(a)
					}
					for _, vc := range vantages {
						c := tw.w.MustCountry(vc)
						for _, a := range anyAddrs {
							got["any/"+vc+"/"+a.String()] = tw.prober.GeolocateAnycast(c, a)
						}
					}
				}
				verdicts[g] = got
			}()
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if !reflect.DeepEqual(verdicts[g], verdicts[0]) {
				t.Fatalf("goroutine %d saw different verdicts than goroutine 0", g)
			}
		}
		return verdicts[0], len(tw.prober.unicast), len(tw.prober.anycast)
	}

	v1, u, a := run()
	v2, _, _ := run()
	if !reflect.DeepEqual(v1, v2) {
		t.Error("two identically seeded runs disagree on verdicts")
	}
	if want := 8; u != want {
		t.Errorf("unicast cache holds %d entries, want %d (one per address)", u, want)
	}
	if want := 4 * 4; a != want {
		t.Errorf("anycast cache holds %d entries, want %d (one per (vantage, addr))", a, want)
	}
}
