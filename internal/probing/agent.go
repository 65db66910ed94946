package probing

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/netsim"
)

// The measurement-agent protocol lets active probing run over real
// sockets: a probe sends an 18-byte echo request naming a vantage
// country, a target address and an attempt number, and the agent
// answers after the simulated round-trip time has elapsed (or not at
// all for ICMP-silent targets). Integration tests and the dnsprobe
// example use this to drive §3.5 measurements through the network
// stack instead of through function calls.
//
// Wire format (big endian):
//
//	request:  magic[2] "GP" | attempt uint16 | addr [4]byte | cc [2]byte | nonce uint64
//	response: magic[2] "GR" | rttMicros uint32 | nonce uint64
const (
	agentReqLen  = 18
	agentRespLen = 14
)

// AgentTimeScale compresses the simulated RTTs so tests do not sleep
// for real intercontinental latencies: a simulated millisecond costs
// one microsecond of wall time by default.
const AgentTimeScale = 1000

// Agent serves echo requests against the simulated network.
type Agent struct {
	Net *netsim.Net
	// TimeScale divides the simulated delay; 0 means AgentTimeScale.
	TimeScale int

	mu       sync.Mutex
	conn     *net.UDPConn
	wg       sync.WaitGroup
	shutdown bool
}

// Start begins serving on addr ("127.0.0.1:0") and returns the bound
// address.
func (a *Agent) Start(addr string) (string, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return "", err
	}
	a.mu.Lock()
	a.conn = conn
	a.mu.Unlock()
	a.wg.Add(1)
	//lint:ignore scheduler-bypass -- the agent's UDP accept loop must outlive Start and is joined by Close via a.wg
	go a.serve(conn)
	return conn.LocalAddr().String(), nil
}

// Close stops the agent.
func (a *Agent) Close() error {
	a.mu.Lock()
	a.shutdown = true
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return nil
}

func (a *Agent) scale() int {
	if a.TimeScale > 0 {
		return a.TimeScale
	}
	return AgentTimeScale
}

func (a *Agent) serve(conn *net.UDPConn) {
	defer a.wg.Done()
	buf := make([]byte, 64)
	for {
		n, remote, err := conn.ReadFromUDP(buf)
		if err != nil {
			a.mu.Lock()
			done := a.shutdown
			a.mu.Unlock()
			if done {
				return
			}
			continue
		}
		if n != agentReqLen || buf[0] != 'G' || buf[1] != 'P' {
			continue // malformed probe; real agents drop these silently
		}
		attempt := binary.BigEndian.Uint16(buf[2:4])
		target := netip.AddrFrom4([4]byte(buf[4:8]))
		cc := string(buf[8:10])
		nonce := binary.BigEndian.Uint64(buf[10:18])

		rtt, ok := a.Net.Ping(cc, target, int(attempt))
		if !ok {
			continue // ICMP-silent targets answer nothing
		}
		a.wg.Add(1)
		//lint:ignore scheduler-bypass -- delayed echo replies model the wire, not pipeline work; joined by Close via a.wg
		go func(remote *net.UDPAddr, rtt float64, nonce uint64) {
			defer a.wg.Done()
			// Delay by the scaled simulated RTT so the probe measures
			// it off the wire.
			//lint:ignore nondeterminism -- wire pacing for the live-socket demo agent; RTT values come from netsim and no dataset bytes derive from this sleep
			time.Sleep(time.Duration(rtt*1000/float64(a.scale())) * time.Microsecond)
			resp := make([]byte, agentRespLen)
			resp[0], resp[1] = 'G', 'R'
			binary.BigEndian.PutUint32(resp[2:6], uint32(rtt*1000))
			binary.BigEndian.PutUint64(resp[6:14], nonce)
			conn.WriteToUDP(resp, remote)
		}(remote, rtt, nonce)
	}
}

// ErrNoReply reports an unanswered probe.
var ErrNoReply = errors.New("probing: no reply from agent")

// probeTimeout bounds one echo request: a silent target answers
// nothing, so its probe ends at the earlier of this and the context's
// deadline.
const probeTimeout = 3 * time.Second

// ProbeOnce sends one echo request through the agent and returns the
// simulated RTT in milliseconds, or ErrNoReply when the target is
// ICMP-silent or the wait exceeds probeTimeout.
func ProbeOnce(ctx context.Context, agentAddr, vantageCC string, target netip.Addr, attempt int, nonce uint64) (float64, error) {
	if len(vantageCC) != 2 {
		return 0, fmt.Errorf("probing: bad vantage country %q", vantageCC)
	}
	if !target.Is4() {
		return 0, fmt.Errorf("probing: target must be IPv4")
	}
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "udp", agentAddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	//lint:ignore nondeterminism -- socket deadline for the live-socket probe path; timeouts surface as ErrNoReply, never as dataset bytes
	dl := time.Now().Add(probeTimeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	conn.SetDeadline(dl)
	req := make([]byte, agentReqLen)
	req[0], req[1] = 'G', 'P'
	binary.BigEndian.PutUint16(req[2:4], uint16(attempt))
	b4 := target.As4()
	copy(req[4:8], b4[:])
	copy(req[8:10], vantageCC)
	binary.BigEndian.PutUint64(req[10:18], nonce)
	if _, err := conn.Write(req); err != nil {
		return 0, err
	}
	resp := make([]byte, 64)
	n, err := conn.Read(resp)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return 0, ErrNoReply
		}
		return 0, err
	}
	if n != agentRespLen || resp[0] != 'G' || resp[1] != 'R' {
		return 0, fmt.Errorf("probing: malformed agent response (%d bytes)", n)
	}
	if got := binary.BigEndian.Uint64(resp[6:14]); got != nonce {
		return 0, fmt.Errorf("probing: nonce mismatch")
	}
	return float64(binary.BigEndian.Uint32(resp[2:6])) / 1000, nil
}

// MinProbe sends k probes through the agent and returns the minimum
// RTT, mirroring §3.5's min-of-three measurement over the wire.
func MinProbe(ctx context.Context, agentAddr, vantageCC string, target netip.Addr, k int) (float64, error) {
	best := -1.0
	for i := 0; i < k; i++ {
		rtt, err := ProbeOnce(ctx, agentAddr, vantageCC, target, i, uint64(i)+1)
		if errors.Is(err, ErrNoReply) {
			return 0, ErrNoReply
		}
		if err != nil {
			return 0, err
		}
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	if best < 0 {
		return 0, ErrNoReply
	}
	return best, nil
}
