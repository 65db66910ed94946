// Package faults is the deterministic fault-injection layer for chaos
// runs. The paper's harness survived a hostile live web — unreachable
// sites, flaky VPN egresses, truncated transfers, lame DNS — while our
// synthetic world is pathologically healthy; this package makes the
// world hostile on demand, and does it reproducibly: every fault
// decision is a pure function of (fault seed, subject, attempt), hashed
// rather than drawn from a shared random stream, so the same seed
// yields byte-identical fault plans at any concurrency and a chaos run
// is as replayable as a clean one.
//
// Three injection points cover the fetch/resolve path:
//
//   - Fetcher wraps any fetch.Fetcher with per-host faults: timeouts,
//     connection resets, HTTP 5xx, truncated bodies, slow responses.
//   - Plan.DNSFault injects SERVFAIL into hostname resolution (the
//     core pipeline's resolver and dnswire.Resolver both consult it).
//   - Plan.EgressFlap makes a vantage's VPN egress fail location
//     validation, exercising the pipeline's bounded re-connection.
//
// Faults are per-attempt: attempt 2 hashes differently from attempt 0,
// so a retry can genuinely recover — except for dead hosts, which are
// chosen per host and never answer.
package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fetch"
	"repro/internal/har"
)

// Kind names one injectable fault.
type Kind string

// The fault kinds.
const (
	KindNone     Kind = ""
	KindTimeout  Kind = "timeout"
	KindReset    Kind = "reset"
	KindHTTP5xx  Kind = "5xx"
	KindTruncate Kind = "truncated"
	KindSlow     Kind = "slow"
	KindServfail Kind = "servfail"
	KindFlap     Kind = "flap"
)

// Profile sets the injection rate of each fault kind, each an
// independent per-attempt probability in [0, 1].
type Profile struct {
	Name string

	Timeout  float64 // fetch times out
	Reset    float64 // connection reset mid-transfer
	HTTP5xx  float64 // upstream answers 500/502/503
	Truncate float64 // body cut in half
	Slow     float64 // response delayed by SlowDelay

	// DeadHost is the per-host probability that a host never answers
	// at all — the one persistent fault, immune to retries.
	DeadHost float64

	// DNSServfail is the per-attempt probability a resolution returns
	// SERVFAIL.
	DNSServfail float64

	// EgressFlap is the per-attempt probability that a freshly
	// connected VPN egress fails location validation.
	EgressFlap float64

	// SlowDelay is how long a slow response stalls; 0 means 2ms (the
	// synthetic web answers in microseconds, so this is already an
	// order-of-magnitude degradation without slowing the suite).
	SlowDelay time.Duration
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.Timeout > 0 || p.Reset > 0 || p.HTTP5xx > 0 || p.Truncate > 0 ||
		p.Slow > 0 || p.DeadHost > 0 || p.DNSServfail > 0 || p.EgressFlap > 0
}

func (p Profile) slowDelay() time.Duration {
	if p.SlowDelay == 0 {
		return 2 * time.Millisecond
	}
	return p.SlowDelay
}

// The named profiles: Mild approximates a healthy production crawl
// (occasional transient noise); Aggressive approximates the worst the
// paper's harness met — double-digit failure rates on every axis —
// and is what the chaos suite runs under.
var namedProfiles = map[string]Profile{
	"off": {Name: "off"},
	"mild": {
		Name:    "mild",
		Timeout: 0.01, Reset: 0.01, HTTP5xx: 0.02, Truncate: 0.01, Slow: 0.02,
		DeadHost: 0.005, DNSServfail: 0.01, EgressFlap: 0.05,
	},
	"aggressive": {
		Name:    "aggressive",
		Timeout: 0.10, Reset: 0.08, HTTP5xx: 0.10, Truncate: 0.05, Slow: 0.05,
		DeadHost: 0.02, DNSServfail: 0.10, EgressFlap: 0.30,
	},
}

// ParseProfile resolves a -fault-profile flag value: a named profile
// ("off", "mild", "aggressive") or a comma-separated key=value spec
// over the rate fields, e.g. "timeout=0.2,reset=0.1,flap=0.5".
// Recognised keys: timeout, reset, 5xx, truncate, slow, dead,
// servfail, flap, slowdelay (a duration).
func ParseProfile(spec string) (Profile, error) {
	spec = strings.TrimSpace(spec)
	if p, ok := namedProfiles[strings.ToLower(spec)]; ok {
		return p, nil
	}
	p := Profile{Name: spec}
	if spec == "" {
		p.Name = "off"
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faults: bad profile term %q (want key=value or a profile name)", kv)
		}
		if key == "slowdelay" {
			d, err := time.ParseDuration(val)
			if err != nil {
				return Profile{}, fmt.Errorf("faults: bad slowdelay %q: %v", val, err)
			}
			if d < 0 {
				return Profile{}, fmt.Errorf("faults: bad slowdelay %q (want >= 0)", val)
			}
			p.SlowDelay = d
			continue
		}
		// Written so NaN, which ParseFloat accepts and every comparison
		// rejects, fails the range check instead of slipping through it.
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil || !(rate >= 0 && rate <= 1) {
			return Profile{}, fmt.Errorf("faults: bad rate %q for %q (want 0..1)", val, key)
		}
		switch key {
		case "timeout":
			p.Timeout = rate
		case "reset":
			p.Reset = rate
		case "5xx":
			p.HTTP5xx = rate
		case "truncate":
			p.Truncate = rate
		case "slow":
			p.Slow = rate
		case "dead":
			p.DeadHost = rate
		case "servfail":
			p.DNSServfail = rate
		case "flap":
			p.EgressFlap = rate
		default:
			return Profile{}, fmt.Errorf("faults: unknown fault kind %q", key)
		}
	}
	return p, nil
}

// ProfileNames lists the named profiles for usage strings.
func ProfileNames() []string {
	names := make([]string, 0, len(namedProfiles))
	for n := range namedProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plan is a seeded fault plan: the deterministic oracle every
// injection point consults. Stateless and safe for concurrent use.
type Plan struct {
	seed    int64
	Profile Profile
}

// NewPlan builds a plan. The same (seed, profile) pair always yields
// the same faults.
func NewPlan(seed int64, p Profile) *Plan {
	return &Plan{seed: seed, Profile: p}
}

// Seed reports the plan's fault seed.
func (p *Plan) Seed() int64 { return p.seed }

// roll returns a uniform-ish value in [0, 1) that is a pure function
// of the plan seed and label — the same construction netsim uses for
// ping jitter, and for the same reason: no shared stream means no
// scheduling sensitivity.
func (p *Plan) roll(label string) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	return float64(h.Sum64()%1e6) / 1e6
}

// Fault is one decided fault.
type Fault struct {
	Kind   Kind
	Status int           // for KindHTTP5xx
	Delay  time.Duration // for KindSlow
}

// attemptLabel keys a per-attempt decision.
func attemptLabel(kind, subject string, attempt int) string {
	return kind + "/" + subject + "/" + strconv.Itoa(attempt)
}

// FetchFault decides the fault (if any) for fetching from host on the
// given retry attempt. Kinds are tested in a fixed priority order so
// the decision is single-valued.
func (p *Plan) FetchFault(host string, attempt int) Fault {
	pr := p.Profile
	if pr.DeadHost > 0 && p.roll("dead/"+host) < pr.DeadHost {
		return Fault{Kind: KindTimeout} // dead hosts time out on every attempt
	}
	if pr.Timeout > 0 && p.roll(attemptLabel("timeout", host, attempt)) < pr.Timeout {
		return Fault{Kind: KindTimeout}
	}
	if pr.Reset > 0 && p.roll(attemptLabel("reset", host, attempt)) < pr.Reset {
		return Fault{Kind: KindReset}
	}
	if pr.HTTP5xx > 0 && p.roll(attemptLabel("5xx", host, attempt)) < pr.HTTP5xx {
		statuses := [3]int{500, 502, 503}
		pick := int(p.roll(attemptLabel("5xx-status", host, attempt)) * 3)
		if pick > 2 {
			pick = 2
		}
		return Fault{Kind: KindHTTP5xx, Status: statuses[pick]}
	}
	if pr.Truncate > 0 && p.roll(attemptLabel("truncate", host, attempt)) < pr.Truncate {
		return Fault{Kind: KindTruncate}
	}
	if pr.Slow > 0 && p.roll(attemptLabel("slow", host, attempt)) < pr.Slow {
		return Fault{Kind: KindSlow, Delay: pr.slowDelay()}
	}
	return Fault{}
}

// DNSFault returns a SERVFAIL error for resolving host on the given
// attempt, or nil.
func (p *Plan) DNSFault(host string, attempt int) error {
	if pr := p.Profile; pr.DNSServfail > 0 &&
		p.roll(attemptLabel("servfail", host, attempt)) < pr.DNSServfail {
		return &ServfailError{Host: host}
	}
	return nil
}

// EgressFlap reports whether the VPN egress connected for country on
// the given connection attempt flaps during location validation.
func (p *Plan) EgressFlap(country string, attempt int) bool {
	pr := p.Profile
	return pr.EgressFlap > 0 && p.roll(attemptLabel("flap", country, attempt)) < pr.EgressFlap
}

// TimeoutError is an injected fetch timeout; it satisfies the
// net.Error timeout contract so classification treats it like a real
// deadline expiry.
type TimeoutError struct{ Host string }

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("faults: %s: i/o timeout (injected)", e.Host)
}
func (e *TimeoutError) Timeout() bool   { return true }
func (e *TimeoutError) Temporary() bool { return true }

// ResetError is an injected connection reset; it unwraps to
// syscall.ECONNRESET so errors.Is-based classification matches it
// exactly like a real reset.
type ResetError struct{ Host string }

func (e *ResetError) Error() string {
	return fmt.Sprintf("faults: %s: connection reset by peer (injected)", e.Host)
}
func (e *ResetError) Unwrap() error { return syscall.ECONNRESET }

// ServfailError is an injected DNS SERVFAIL: a dns-class failure that
// is nonetheless transient, like a lame upstream.
type ServfailError struct{ Host string }

func (e *ServfailError) Error() string {
	return fmt.Sprintf("faults: SERVFAIL for %s (injected)", e.Host)
}
func (e *ServfailError) FailKind() fetch.FailKind { return fetch.FailDNS }
func (e *ServfailError) Transient() bool          { return true }

// hostOf extracts the hostname a fault plan keys on; unparseable URLs
// fault as their raw string.
func hostOf(raw string) string {
	if host, _, ok := har.SplitCanonical(raw); ok {
		return host
	}
	if u, err := url.Parse(raw); err == nil && u.Hostname() != "" {
		return u.Hostname()
	}
	return raw
}
