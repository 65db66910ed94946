package probing

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/rng"
)

func startAgent(t *testing.T) (*testWorld, string) {
	t.Helper()
	tw := setup(t)
	agent := &Agent{Net: tw.net}
	addr, err := agent.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	return tw, addr
}

func TestAgentEchoesSimulatedRTT(t *testing.T) {
	tw, addr := startAgent(t)
	r := rng.New(20, "agent")
	var target netip.Addr
	for i := 0; i < 50; i++ {
		h := tw.net.LocalHostFor("DE", r)
		if h.ICMP {
			target = h.Addr
			break
		}
	}
	if !target.IsValid() {
		t.Skip("no responsive target")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	overWire, err := ProbeOnce(ctx, addr, "DE", target, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	direct, ok := tw.net.Ping("DE", target, 0)
	if !ok {
		t.Fatal("direct ping failed")
	}
	if math.Abs(overWire-direct) > 0.01 {
		t.Fatalf("wire RTT %.3f != simulated %.3f", overWire, direct)
	}
}

func TestAgentMinProbeMatchesMinPing(t *testing.T) {
	tw, addr := startAgent(t)
	r := rng.New(21, "agent-min")
	var target netip.Addr
	for i := 0; i < 50; i++ {
		h := tw.net.LocalHostFor("FR", r)
		if h.ICMP {
			target = h.Addr
			break
		}
	}
	if !target.IsValid() {
		t.Skip("no responsive target")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	overWire, err := MinProbe(ctx, addr, "FR", target, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := tw.net.MinPingFrom("FR", target, 3, 0)
	if math.Abs(overWire-direct) > 0.01 {
		t.Fatalf("wire min %.3f != simulated min %.3f", overWire, direct)
	}
}

func TestAgentSilentForUnresponsiveTargets(t *testing.T) {
	tw, addr := startAgent(t)
	r := rng.New(22, "agent-silent")
	var target netip.Addr
	for i := 0; i < 200; i++ {
		h := tw.net.GovHostFor("IN", false, "IN", r)
		if !h.ICMP {
			target = h.Addr
			break
		}
	}
	if !target.IsValid() {
		t.Skip("no silent target sampled")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := ProbeOnce(ctx, addr, "IN", target, 0, 9); !errors.Is(err, ErrNoReply) {
		t.Fatalf("silent target answered: %v", err)
	}
}

// TestAgentSilentTargetBoundedWait: a silent target under a long
// context deadline still answers ErrNoReply within one probe's
// timeout, not at the context's deadline.
func TestAgentSilentTargetBoundedWait(t *testing.T) {
	tw, addr := startAgent(t)
	r := rng.New(22, "agent-silent")
	var target netip.Addr
	for i := 0; i < 200; i++ {
		if h := tw.net.GovHostFor("IN", false, "IN", r); !h.ICMP {
			target = h.Addr
			break
		}
	}
	if !target.IsValid() {
		t.Skip("no silent target sampled")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	if _, err := ProbeOnce(ctx, addr, "IN", target, 0, 9); !errors.Is(err, ErrNoReply) {
		t.Fatalf("silent target answered: %v", err)
	}
	if took := time.Since(start); took > probeTimeout+time.Second {
		t.Fatalf("silent probe took %v, want at most %v", took, probeTimeout+time.Second)
	}
}

func TestAgentRejectsBadInput(t *testing.T) {
	_, addr := startAgent(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := ProbeOnce(ctx, addr, "DEU", netip.MustParseAddr("16.0.0.1"), 0, 1); err == nil {
		t.Fatal("three-letter country accepted")
	}
	if _, err := ProbeOnce(ctx, addr, "DE", netip.MustParseAddr("2001:db8::1"), 0, 1); err == nil {
		t.Fatal("IPv6 target accepted")
	}
}
