package core

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/crawler"
	"repro/internal/dataset"
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
// Topsites are never checkpointed; their failed resolutions are
// returned, one lookup each, for the shared-cache ledger.
func (env *Env) runTopsites(ctx context.Context, ds *dataset.Dataset, pool *sched.Pool) ([]checkpoint.HostOutcome, error) {
	var failed []checkpoint.HostOutcome
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
		cr := &crawler.Crawler{
			// The baseline rides the same fault/retry stack as the
			// government crawls, so chaos runs degrade it identically.
			// Topsites are never checkpointed, so their accounting goes
			// straight to the study registry, not a fork.
			Fetcher: env.fetchStack(vp.Fetcher, pool, &env.metrics.Fetch, &env.metrics.Faults),
			Config: crawler.Config{
				MaxDepth: 1, // §5.1: top-site scraping stops one level down
				Country:  code,
				VPN:      vp.VPN,
			},
			Pool:    pool,
			Metrics: &env.metrics.Crawl,
		}
		archive, err := cr.Crawl(ctx, landings)
		if err != nil {
			return nil, fmt.Errorf("core: topsites %s: %w", code, err)
		}

		for _, entry := range archive.Entries {
			if entry.Status != 200 || entry.Failure != "" {
				continue
			}
			site := env.Estate.Site(entry.Host)
			if site == nil || site.Kind != webgen.KindTopsite {
				continue
			}
			rec, err := env.annotate(c, entry, &env.metrics.Pipeline)
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
	return failed, nil
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
