// Command govprobe walks one hostname through the §3.4/§3.5
// methodology entirely over real sockets: one DNS A lookup (CNAMEs
// followed) against a live UDP/TCP DNS server, a WHOIS
// lookup over the RFC 3912 TCP protocol, latency measurements through
// the UDP measurement agent, and finally the geolocation verdict.
//
// Usage:
//
//	govprobe -country UY            # probe that country's first landing host
//	govprobe -host finance.gob.mx -country MX
//
//lint:deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/har"
	"repro/internal/probing"
	"repro/internal/whois"
)

func main() {
	var (
		country = flag.String("country", "UY", "vantage country (ISO code)")
		host    = flag.String("host", "", "hostname to probe (default: the country's first landing host)")
		scale   = flag.Float64("scale", 0.05, "estate scale")
		seed    = flag.Int64("seed", 42, "study seed")
	)
	flag.Parse()

	env := core.NewEnv(core.Config{Seed: *seed, Scale: *scale})
	c := env.World.Country(*country)
	if c == nil {
		fatal(fmt.Errorf("unknown country %q", *country))
	}
	target := *host
	if target == "" {
		landings := env.Estate.LandingURLs[c.Code]
		if len(landings) == 0 {
			fatal(fmt.Errorf("no landing URLs for %s", c.Code))
		}
		target = har.HostOf(landings[0])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Live substrate servers.
	dnsSrv := &dnswire.Server{Handler: env.Zones.Handler()}
	dnsAddr, err := dnsSrv.Start("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer dnsSrv.Close()
	whoisSrv := &whois.Server{DB: env.WhoisDB}
	whoisAddr, err := whoisSrv.Start("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer whoisSrv.Close()
	agent := &probing.Agent{Net: env.Net}
	agentAddr, err := agent.Start("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer agent.Close()
	fmt.Printf("substrate: DNS %s | WHOIS %s | probe agent %s\n\n", dnsAddr, whoisAddr, agentAddr)

	// Step 1: resolve over the wire (§3.4).
	res, err := dnswire.LookupA(ctx, dnsAddr, target)
	if err != nil {
		fatal(fmt.Errorf("resolve %s: %w", target, err))
	}
	fmt.Printf("DNS: %s -> %s", target, res.Addr)
	if len(res.Chain) > 0 {
		fmt.Printf(" (via %v)", res.Chain)
	}
	fmt.Println()

	// Step 2: WHOIS over TCP (§3.4).
	rec, err := whois.Query(ctx, whoisAddr, res.Addr)
	if err != nil {
		fatal(fmt.Errorf("whois %s: %w", res.Addr, err))
	}
	fmt.Printf("WHOIS: AS%d %q, registered in %s\n", rec.ASN, rec.Org, rec.Country)

	// Step 3: latency from the vantage over UDP (§3.5).
	rtt, err := probing.MinProbe(ctx, agentAddr, c.Code, res.Addr, 3)
	switch err {
	case nil:
		thr := probing.Threshold(c)
		verdictStr := "consistent with in-country serving"
		if rtt > thr {
			verdictStr = "too far for in-country serving"
		}
		fmt.Printf("probe: min RTT %.1f ms from %s (threshold %.1f ms) — %s\n",
			rtt, c.Code, thr, verdictStr)
	case probing.ErrNoReply:
		fmt.Printf("probe: %s does not answer ICMP; multistage geolocation takes over\n", res.Addr)
	default:
		fatal(err)
	}

	// Step 4: the full §3.5 pipeline verdict.
	var verdict probing.Verdict
	if env.Manycast.IsAnycast(res.Addr) {
		verdict = env.Prober.GeolocateAnycast(c, res.Addr)
	} else {
		verdict = env.Prober.GeolocateUnicast(res.Addr)
	}
	fmt.Printf("geolocation verdict: country=%q method=%s anycast=%v\n",
		verdict.Country, verdict.Method, verdict.Anycast)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govprobe:", err)
	os.Exit(1)
}
