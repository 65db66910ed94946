// Package probing implements the server-geolocation methodology of
// §3.5: per-country latency thresholds derived from road distances,
// RIPE-Atlas-style probe measurements (five probes, minimum of three
// pings), anycast verification, and the multistage fallback pipeline
// (HOIHO PTR hints, the RIPE IPmap cache, single-radius probing) for
// unicast addresses that active probing cannot confirm.
package probing

import (
	"net/netip"

	"repro/internal/dnssim"
	"repro/internal/geo/ipinfo"
	"repro/internal/geo/manycast"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/world"
)

// Method records how an address's location was validated.
type Method string

// Validation outcomes (Table 4's columns).
const (
	MethodAP         Method = "AP" // active probing confirmed
	MethodMG         Method = "MG" // multistage geolocation confirmed
	MethodUnresolved Method = "UR" // could not be validated
	MethodExcluded   Method = "EX" // conflicting evidence; dropped from analysis
)

// Verdict is the final geolocation decision for one address.
type Verdict struct {
	Addr          netip.Addr
	Anycast       bool
	Country       string // validated country; empty for UR/EX
	Method        Method
	IPInfoCountry string
	MinRTT        float64 // milliseconds, when a probe answered
}

// Prober runs the geolocation pipeline against the simulated network.
type Prober struct {
	Net     *netsim.Net
	World   *world.Model
	Zones   *dnssim.Zones
	IPInfo  *ipinfo.DB
	Anycast *manycast.Snapshot

	// GlobalThresholdMS, when positive, replaces the per-country
	// road-distance thresholds with a single global value — the
	// ablation the paper argues against ("rather than settling for a
	// single global threshold", §3.5).
	GlobalThresholdMS float64

	// UnicastCoalesced and AnycastCoalesced, when set, count the
	// lookups that waited on another worker's in-flight probe sequence
	// — interleaving-dependent runtime data. The caches record no
	// deterministic counts: the pipeline derives lookups, hits, misses
	// and negatives from the verdicts in the assembled dataset.
	UnicastCoalesced *metrics.Counter
	AnycastCoalesced *metrics.Counter

	// Both caches are single-flight: the first goroutine to miss runs
	// the probe sequence while concurrent callers for the same key wait
	// for it instead of duplicating the measurement. Unicast verdicts
	// are vantage-independent; anycast verification depends on the
	// vantage, so that cache keys on both.
	unicast sched.Memo[netip.Addr, Verdict]
	anycast sched.Memo[anycastKey, Verdict]
}

type anycastKey struct {
	vantage string
	addr    netip.Addr
}

// New returns a Prober.
func New(n *netsim.Net, w *world.Model, z *dnssim.Zones, db *ipinfo.DB, mc *manycast.Snapshot) *Prober {
	return &Prober{Net: n, World: w, Zones: z, IPInfo: db, Anycast: mc}
}

// Threshold returns the per-country latency threshold: the intercity
// road distance between the two furthest cities converted to RTT, with
// a floor so that city-state last-mile jitter does not reject genuine
// domestic servers.
func Threshold(c *world.Country) float64 {
	t := c.RoadThresholdMS() + 1.5
	if t < 3 {
		t = 3
	}
	return t
}

// probeCount and pingsPerProbe mirror §3.5: five RIPE Atlas probes in
// the country, three pings each, keep the minimum.
const (
	probeCount    = 5
	pingsPerProbe = 3
)

// thresholdFor applies the ablation override when configured.
func (p *Prober) thresholdFor(c *world.Country) float64 {
	if p.GlobalThresholdMS > 0 {
		return p.GlobalThresholdMS
	}
	return Threshold(c)
}

// minFromProbes returns the minimum RTT over all probes in the
// country, and whether anything answered. The attempt fan 0..14 is
// exactly what the former nested probe×ping loop produced, so the
// netsim fast path (one geometry read, fifteen jitter folds) returns
// bit-identical minima. Responsiveness is all-or-nothing per
// (vantage, addr) in the simulation, matching the old early return.
func (p *Prober) minFromProbes(country string, addr netip.Addr) (float64, bool) {
	return p.Net.MinPingFrom(country, addr, probeCount*pingsPerProbe, 0)
}

// Negative reports whether the method failed to validate the address
// — a negative entry of the verdict cache, the analogue of a failed
// resolution.
func (m Method) Negative() bool {
	return m == MethodUnresolved || m == MethodExcluded
}

// GeolocateAnycast verifies whether an anycast address has a site
// inside the vantage country (§3.5 Step #3 for anycast): latency from
// in-country probes below the country threshold means yes; anything
// else excludes the address from the analysis. Verdicts are pure
// functions of the seeded world, so they are cached per
// (vantage, addr) with single-flight semantics.
func (p *Prober) GeolocateAnycast(vantage *world.Country, addr netip.Addr) Verdict {
	v, kind := p.anycast.Do(anycastKey{vantage: vantage.Code, addr: addr}, func() Verdict {
		return p.geolocateAnycastUncached(vantage, addr)
	})
	coalesce(p.AnycastCoalesced, kind)
	return v
}

func (p *Prober) geolocateAnycastUncached(vantage *world.Country, addr netip.Addr) Verdict {
	v := Verdict{Addr: addr, Anycast: true}
	rtt, ok := p.minFromProbes(vantage.Code, addr)
	if !ok {
		v.Method = MethodUnresolved
		return v
	}
	v.MinRTT = rtt
	if rtt <= p.thresholdFor(vantage) {
		v.Method = MethodAP
		v.Country = vantage.Code
		return v
	}
	v.Method = MethodUnresolved
	return v
}

// coalesce counts a lookup that waited on another worker's in-flight
// probe sequence — an interleaving artifact, reported on the runtime
// side.
func coalesce(c *metrics.Counter, kind sched.Lookup) {
	if c != nil && kind == sched.Coalesced {
		c.Inc()
	}
}

// GeolocateUnicast validates a unicast address: IPInfo's claim is
// checked by active probing from the claimed country, then the
// multistage pipeline takes over, and conflicts with IPInfo are
// excluded (§3.5 Steps #1, #3, #4). Unicast verdicts are
// vantage-independent, so the cache keys on the address alone; the
// single-flight entry guarantees one probe sequence — including the
// panel-wide singleRadius sweep — per address across all workers.
func (p *Prober) GeolocateUnicast(addr netip.Addr) Verdict {
	v, kind := p.unicast.Do(addr, func() Verdict { return p.geolocateUnicastUncached(addr) })
	coalesce(p.UnicastCoalesced, kind)
	return v
}

func (p *Prober) geolocateUnicastUncached(addr netip.Addr) Verdict {
	v := Verdict{Addr: addr}
	claimed := ""
	if e, ok := p.IPInfo.Lookup(addr); ok {
		claimed = e.Country
	}
	v.IPInfoCountry = claimed

	// Step #3: active probing from the claimed country.
	if c := p.World.Country(claimed); c != nil {
		if rtt, ok := p.minFromProbes(claimed, addr); ok {
			v.MinRTT = rtt
			if rtt <= p.thresholdFor(c) {
				v.Method = MethodAP
				v.Country = claimed
				return v
			}
		}
	}

	// Step #4: multistage geolocation.
	if mg := p.multistage(addr); mg != "" {
		if claimed != "" && mg != claimed {
			// Conflicting evidence: adopt the conservative choice and
			// drop the address (the paper excludes 84 such instances).
			v.Method = MethodExcluded
			return v
		}
		v.Method = MethodMG
		v.Country = mg
		return v
	}
	v.Method = MethodUnresolved
	return v
}

// multistage tries HOIHO PTR hints, then the RIPE IPmap cache, then
// single-radius probing.
func (p *Prober) multistage(addr netip.Addr) string {
	if ptr := p.Zones.PTR(addr); ptr != "" {
		if cc := HOIHO(p.World, ptr); cc != "" {
			return cc
		}
	}
	if h := p.Net.Host(addr); h != nil && h.InIPmap && !h.Anycast {
		// IPmap's cached crowd-sourced/latency results are accurate
		// when present.
		return h.Country
	}
	return p.singleRadius(addr)
}

// singleRadius pings the target from every panel country and accepts
// the location whose probes see the lowest RTT, provided that RTT is
// small enough to pin the address inside one country.
func (p *Prober) singleRadius(addr netip.Addr) string {
	bestCountry := ""
	best := -1.0
	for _, c := range p.World.Panel() {
		rtt, ok := p.minFromProbes(c.Code, addr)
		if !ok {
			return "" // unresponsive: no single-radius either
		}
		if best < 0 || rtt < best {
			best, bestCountry = rtt, c.Code
		}
	}
	if bestCountry == "" {
		return ""
	}
	if c := p.World.Country(bestCountry); c != nil && best <= p.thresholdFor(c) {
		return bestCountry
	}
	return ""
}

// Stats aggregates validation outcomes in the shape of Table 4.
type Stats struct {
	UnicastAP, UnicastMG, UnicastUR, UnicastEX int
	AnycastAP, AnycastUR                       int
}

// Observe folds a verdict into the stats.
func (s *Stats) Observe(v Verdict) {
	if v.Anycast {
		switch v.Method {
		case MethodAP:
			s.AnycastAP++
		default:
			s.AnycastUR++
		}
		return
	}
	switch v.Method {
	case MethodAP:
		s.UnicastAP++
	case MethodMG:
		s.UnicastMG++
	case MethodExcluded:
		s.UnicastEX++
	default:
		s.UnicastUR++
	}
}

// Fractions returns the Table 4 rows: unicast (AP, MG, UR) and anycast
// (AP, UR) shares. Excluded unicast addresses count toward UR, as the
// paper folds its 84 exclusions into the unresolved column.
func (s *Stats) Fractions() (uniAP, uniMG, uniUR, anyAP, anyUR float64) {
	uni := float64(s.UnicastAP + s.UnicastMG + s.UnicastUR + s.UnicastEX)
	if uni > 0 {
		uniAP = float64(s.UnicastAP) / uni
		uniMG = float64(s.UnicastMG) / uni
		uniUR = float64(s.UnicastUR+s.UnicastEX) / uni
	}
	anyc := float64(s.AnycastAP + s.AnycastUR)
	if anyc > 0 {
		anyAP = float64(s.AnycastAP) / anyc
		anyUR = float64(s.AnycastUR) / anyc
	}
	return
}
