package core

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topsites"
	"repro/internal/vantage"
	"repro/internal/webgen"
)

// runTopsites collects the Appendix D baseline: for the 14 comparison
// countries (Table 6) it crawls each popular site one level beyond the
// landing page, identifies self-hosting via the CNAME/SAN heuristic,
// and annotates serving infrastructure exactly like the government
// pipeline — through the same shared scheduler and resolution cache.
// Topsites are never checkpointed; their failed resolutions (one
// lookup each) and one tally row per crawl are returned for the
// ledger.
func (env *Env) runTopsites(ctx context.Context, ds *dataset.Dataset, pool *sched.Pool) ([]checkpoint.HostOutcome, []metrics.CrawlTally, error) {
	var failed []checkpoint.HostOutcome
	var tallies []metrics.CrawlTally
	subset := env.topsiteCountrySet()
	for _, code := range webgen.ComparisonCountries {
		if !subset[code] {
			continue
		}
		c := env.World.MustCountry(code)
		sites := env.Estate.Topsites[code]
		if len(sites) == 0 {
			continue
		}
		vp := vantage.Connect(c, env.Estate, env.Net, env.Config.Seed)

		var landings []string
		for _, s := range sites {
			landings = append(landings, s.Landing...)
		}
		// The baseline rides the same fault/retry stack as the
		// government crawls, so chaos runs degrade it identically.
		archive, tally, err := env.crawl(ctx, pool, vp.Fetcher, crawler.Config{
			MaxDepth: 1, // §5.1: top-site scraping stops one level down
			Country:  code,
			VPN:      vp.VPN,
		}, landings)
		if err != nil {
			return nil, nil, fmt.Errorf("core: topsites %s: %w", code, err)
		}
		tallies = append(tallies, tally)

		for _, entry := range archive.Entries {
			if entry.Status != 200 || entry.Failure != "" {
				continue
			}
			site := env.Estate.Site(entry.Host)
			if site == nil || site.Kind != webgen.KindTopsite {
				continue
			}
			rec, err := env.annotate(c, entry)
			if err != nil {
				failed = append(failed, checkpoint.HostOutcome{Host: entry.Host, Lookups: 1})
				continue
			}
			cname, _ := env.Zones.CNAMEOf(entry.Host)
			var sans []string
			if cert := env.Estate.Certs.Get(entry.Host); cert != nil {
				sans = cert.SANs
			}
			rec.TopsiteSelf = topsites.SelfHosted(entry.Host, cname, sans)
			ds.Topsites = append(ds.Topsites, rec)
		}
	}
	return failed, tallies, nil
}

// topsiteCountrySet intersects the comparison subset with the
// configured country restriction.
func (env *Env) topsiteCountrySet() map[string]bool {
	set := map[string]bool{}
	if len(env.Config.Countries) == 0 {
		for _, code := range webgen.ComparisonCountries {
			set[code] = true
		}
		return set
	}
	configured := map[string]bool{}
	for _, code := range env.Config.Countries {
		configured[code] = true
	}
	for _, code := range webgen.ComparisonCountries {
		if configured[code] {
			set[code] = true
		}
	}
	return set
}
