// Package crawler implements the §3.2 collection step: starting from a
// country's landing URLs it recursively fetches pages up to seven
// levels deep (a threshold informed by Singanamalla et al.), captures
// every resource into a HAR archive, and follows links across
// hostnames — the §3.3 filter decides later which of those are
// government resources.
//
// The crawl is a level-synchronised BFS: each depth level's frontier
// is admitted deterministically (deduplicated, sorted, capped) before
// any of it is fetched, so two runs with equal seeds visit exactly the
// same URL set regardless of worker scheduling — including under a
// MaxURLs cap. Fetches within a level run in parallel on a bounded
// worker pool; several crawls can share one study-wide pool.
package crawler

import (
	"context"
	"slices"
	"strings"

	"repro/internal/fetch"
	"repro/internal/har"
	"repro/internal/sched"
)

// DefaultMaxDepth is the paper's crawl depth.
const DefaultMaxDepth = 7

// Config controls one crawl.
type Config struct {
	MaxDepth    int // 0 means DefaultMaxDepth
	Concurrency int // parallel fetches when no shared pool is set; 0 means 8
	MaxURLs     int // safety cap on distinct URLs; 0 means unlimited
	Country     string
	VPN         string
}

// Crawler drives recursive crawls through a Fetcher.
type Crawler struct {
	Fetcher fetch.Fetcher
	Config  Config
	// Pool, when set, runs this crawl's fetches on a shared scheduler
	// instead of a private worker pool, so one study-wide budget bounds
	// every crawl at once. Nil gives the crawl its own bounded pool of
	// Config.Concurrency workers.
	Pool *sched.Pool
}

// Frontier is one crawl's admission accounting. Admission happens
// single-threaded between levels on sorted URL lists, so every count
// here is deterministic.
type Frontier struct {
	// AdmittedByDepth counts the URLs admitted at each depth level,
	// from the landing level 0 to the deepest non-empty one.
	AdmittedByDepth []int64
	// Truncated counts the candidate URLs the MaxURLs cap evicted.
	Truncated int64
}

// task is one URL scheduled for fetching.
type task struct {
	url     string
	depth   int
	landing string
}

// fetched is one level slot's outcome; ok distinguishes a completed
// fetch from a slot abandoned on cancellation. Links stay as the raw
// extracted URLs — they are deduplicated against seen before any task
// structs are built, so duplicate links (the common case past level
// one) cost no allocation.
type fetched struct {
	entry har.Entry
	links []string
	ok    bool
}

// Crawl fetches the landing URLs and everything reachable from them
// within the configured depth. Fetch errors (unknown hosts, network
// failures) are recorded as status-0 entries carrying their failure
// classification and do not abort the crawl, mirroring how a
// measurement harness tolerates partial failures; geo-blocks, 5xx and
// truncated bodies likewise classify into the entry's Failure bucket.
// Cancellation abandons queued work promptly and returns the context
// error alongside the partial archive. The Frontier reports how the
// admitted URL set was cut.
func (c *Crawler) Crawl(ctx context.Context, landings []string) (*har.Archive, Frontier, error) {
	maxDepth := c.Config.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	pool := c.Pool
	if pool == nil {
		pool = sched.NewPool(sched.ResolveWorkers(c.Config.Concurrency))
		defer pool.Close()
	}

	archive := har.New()
	seen := make(map[string]bool)

	// Landing admission preserves the caller's order; the per-level
	// admission below sorts, so the whole frontier sequence is a pure
	// function of the page graph.
	var frontier []task
	var fr Frontier
	for _, l := range landings {
		if seen[l] {
			continue
		}
		if c.Config.MaxURLs > 0 && len(seen) >= c.Config.MaxURLs {
			fr.Truncated++
			continue
		}
		seen[l] = true
		frontier = append(frontier, task{url: l, depth: 0, landing: l})
	}

	// One result buffer serves every level: the crawl is GC-bound at
	// scale, and a fresh slice per level is the single largest
	// allocation the crawler would otherwise make.
	var results []fetched
	for len(frontier) > 0 && ctx.Err() == nil {
		fr.AdmittedByDepth = append(fr.AdmittedByDepth, int64(len(frontier)))
		if cap(results) < len(frontier) {
			results = make([]fetched, len(frontier))
		} else {
			results = results[:len(frontier)]
			clear(results)
		}
		pool.Each(ctx, len(frontier), func(i int) {
			results[i].entry, results[i].links = c.fetchOne(ctx, frontier[i], maxDepth)
			results[i].ok = true
		})

		// Entries land in frontier order, never completion order, so
		// the archive itself is deterministic. Links are deduplicated in
		// the same order — first discovery wins the (depth, landing)
		// attribution, exactly as a sequential crawl would assign it.
		// New links go straight into seen (one map touch per link);
		// admitLevel evicts the tail again if the cap cuts the level.
		var next []task
		archive.Entries = slices.Grow(archive.Entries, len(frontier))
		for i := range results {
			if !results[i].ok {
				continue
			}
			archive.Add(results[i].entry)
			for _, link := range results[i].links {
				if seen[link] {
					continue
				}
				seen[link] = true
				next = append(next, task{url: link, depth: frontier[i].depth + 1, landing: frontier[i].landing})
			}
		}
		var cut int64
		frontier, cut = c.admitLevel(seen, next)
		fr.Truncated += cut
	}
	return archive, fr, ctx.Err()
}

// admitLevel turns one level's candidate links — already deduplicated
// and provisionally marked in seen — into the next frontier: sort by
// URL so admission order is canonical, then apply the MaxURLs cap,
// evicting anything past the cut from seen again. Running this
// single-threaded between levels is what makes a capped crawl
// seed-deterministic: the cap cuts a sorted list, not a worker race.
// It also reports how many candidates the cap evicted.
func (c *Crawler) admitLevel(seen map[string]bool, next []task) ([]task, int64) {
	if len(next) == 0 {
		return next, 0
	}
	candidates := int64(len(next))
	slices.SortFunc(next, func(a, b task) int { return strings.Compare(a.url, b.url) })
	if c.Config.MaxURLs > 0 {
		allowed := c.Config.MaxURLs - (len(seen) - len(next))
		if allowed < 0 {
			allowed = 0
		}
		if allowed < len(next) {
			for _, t := range next[allowed:] {
				delete(seen, t.url)
			}
			next = next[:allowed]
		}
	}
	return next, candidates - int64(len(next))
}

// fetchOne retrieves a single URL and returns its archive entry plus
// the raw links to consider for the next level.
func (c *Crawler) fetchOne(ctx context.Context, t task, maxDepth int) (har.Entry, []string) {
	entry := har.Entry{
		URL:     t.url,
		Host:    har.HostOf(t.url),
		Depth:   t.depth,
		Landing: t.landing,
		Country: c.Config.Country,
		FromVPN: c.Config.VPN,
	}
	resp, err := c.Fetcher.Fetch(ctx, t.url)
	if err != nil {
		// Status 0: unreachable. The classification survives into the
		// archive so coverage stats can say *why*.
		entry.Failure = string(fetch.ClassifyError(err))
		return entry, nil
	}
	entry.Status = resp.Status
	entry.ContentType = resp.ContentType
	entry.BodySize = resp.BodySize
	if entry.BodySize == 0 {
		entry.BodySize = int64(len(resp.Body))
	}
	if kind := fetch.ClassifyResponse(resp); kind != fetch.FailNone {
		// Geo-blocks, 5xx and truncations are failures even with a
		// response in hand; a truncated page's links are not trusted.
		entry.Failure = string(kind)
		return entry, nil
	}
	if resp.Status != 200 || t.depth >= maxDepth || !isHTML(resp.ContentType) {
		return entry, nil
	}
	return entry, ExtractLinks(t.url, resp.Body)
}

// isHTML matches HTML content types case-insensitively: RFC 9110 media
// types are case-insensitive, and real servers do emit Text/HTML.
// EqualFold avoids the per-response allocation a ToLower would cost on
// this hot path.
func isHTML(ct string) bool {
	return (len(ct) >= 9 && strings.EqualFold(ct[:9], "text/html")) ||
		strings.EqualFold(ct, "application/xhtml+xml")
}
