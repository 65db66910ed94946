package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/netip"

	"repro/internal/world"
)

// Ping simulates one ICMP echo from a probe in vantage (a RIPE-Atlas
// style probe near the capital) to the address. It returns the RTT in
// milliseconds and false when the target does not answer ICMP.
//
// The RTT is the great-circle distance to the effective server site
// converted through the fibre model of the world package, plus a
// deterministic last-mile component and per-attempt jitter, so that
// min-of-three measurements are reproducible without shared state.
//
// Everything except the queue-jitter term is a pure function of
// (vantage, addr) — host geometry, anycast-site selection, the
// DistanceKM trig and the stable FNV hash — so each call computes it
// once and folds only the attempts' jitter draws on top.
func (n *Net) Ping(vantage string, addr netip.Addr, attempt int) (float64, bool) {
	pb, ok := n.pingBaseFor(vantage, addr)
	if !ok || !pb.icmp {
		return 0, false
	}
	return pb.base + queueJitter(pb.stable, attempt), true
}

// MinPingFrom returns the minimum RTT over k attempts (§3.5 sends
// three pings and keeps the minimum) starting at attempt index base,
// and false for unresponsive targets. Distinct bases draw distinct
// per-attempt jitter, which is how a probe sequence (e.g. vantage
// validation's five probes) gets independent yet reproducible
// measurements instead of five copies of one.
//
// This is the probing hot path: the geometry base is computed once
// and only the per-attempt jitter varies inside the loop, so a 15-ping
// probe fan costs one geometry evaluation plus 15 integer folds.
func (n *Net) MinPingFrom(vantage string, addr netip.Addr, k, base int) (float64, bool) {
	if k <= 0 {
		return 0, false
	}
	pb, ok := n.pingBaseFor(vantage, addr)
	if !ok || !pb.icmp {
		return 0, false
	}
	best := math.Inf(1)
	for i := base; i < base+k; i++ {
		if rtt := pb.base + queueJitter(pb.stable, i); rtt < best {
			best = rtt
		}
	}
	return best, true
}

// pingBase is the attempt-independent half of a Ping from one vantage
// to one address.
type pingBase struct {
	// base is max(RTTForKM(dist), 0.15) + 0.3 + lastMile, accumulated
	// in exactly that order — Go evaluates float addition left to
	// right, and the order keeps every RTT bit-identical.
	base float64
	// stable is the FNV-1a state after hashing vantage+addr; the
	// per-attempt queue jitter continues the hash from this state.
	stable uint64
	icmp   bool
}

// pingBaseFor computes the geometry for (vantage, addr), and false
// when either the address has no host or the vantage is unknown.
func (n *Net) pingBaseFor(vantage string, addr netip.Addr) (pingBase, bool) {
	h := n.Host(addr)
	if h == nil {
		return pingBase{}, false
	}
	v := n.World.Country(vantage)
	if v == nil {
		return pingBase{}, false
	}
	pb := pingBase{icmp: h.ICMP}
	if h.ICMP {
		var lat, lon float64
		if h.Anycast {
			site := n.World.Country(n.AnycastSiteFor(h.Provider.Key, vantage))
			lat, lon = site.Lat, site.Lon
		} else {
			lat, lon = h.Lat, h.Lon
		}
		dist := world.DistanceKM(v.Lat, v.Lon, lat, lon)
		base := world.RTTForKM(dist)
		pb.stable = pairHash(vantage, addr)
		// Last-mile and serialization delay: 0.3–1.3 ms, stable per
		// pair; the up-to-2 ms queueing term is folded per attempt by
		// the callers.
		pb.base = math.Max(base, 0.15) + 0.3 + float64(pb.stable%1000)/1000.0
	}
	return pb, true
}

// pairHash is the FNV-1a state over (vantage, addr): it fixes the
// pair's last-mile delay, and each attempt's queue jitter continues it.
func pairHash(vantage string, addr netip.Addr) uint64 {
	h := fnv.New64a()
	h.Write([]byte(vantage))
	b := addr.As4()
	h.Write(b[:])
	return h.Sum64()
}

// fnvPrime64 is the FNV-1a 64-bit prime, matching hash/fnv.
const fnvPrime64 = 1099511628211

// queueJitter folds the four little-endian attempt bytes onto the
// stable hash state, exactly as hash/fnv's Write would, and maps the
// result to 0..2 ms. Continuing the incremental hash keeps every
// per-attempt draw bit-identical to hashing vantage, addr and attempt
// in one pass.
func queueJitter(stable uint64, attempt int) float64 {
	var ab [4]byte
	binary.LittleEndian.PutUint32(ab[:], uint32(attempt))
	per := stable
	for _, c := range ab {
		per = (per ^ uint64(c)) * fnvPrime64
	}
	return float64(per%2000) / 1000.0
}
