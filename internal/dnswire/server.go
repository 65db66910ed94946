package dnswire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Handler produces a response for a query from the client at remote.
type Handler interface {
	ServeDNS(q *Message, remote net.Addr) *Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q *Message, remote net.Addr) *Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(q *Message, remote net.Addr) *Message { return f(q, remote) }

// Server serves DNS over UDP and TCP on the same address. Responses
// that exceed the classic 512-byte UDP limit are truncated with TC set
// so clients retry over TCP, as real resolvers do.
type Server struct {
	Handler Handler
	// MaxUDP is the maximum UDP response size; defaults to 512.
	MaxUDP int
	// Logf, when set, receives malformed-packet diagnostics.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	udp      *net.UDPConn
	tcp      net.Listener
	wg       sync.WaitGroup
	shutdown bool
}

// Start begins serving on addr (e.g. "127.0.0.1:0") and returns the
// bound UDP address.
func (s *Server) Start(addr string) (string, error) {
	if s.Handler == nil {
		return "", errors.New("dnswire: server without handler")
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	uc, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return "", err
	}
	tl, err := net.Listen("tcp", uc.LocalAddr().String())
	if err != nil {
		uc.Close()
		return "", err
	}
	s.mu.Lock()
	s.udp, s.tcp = uc, tl
	s.mu.Unlock()
	s.wg.Add(2)
	go s.serveUDP(uc)
	go s.serveTCP(tl)
	return uc.LocalAddr().String(), nil
}

// Close stops the server and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	if s.udp != nil {
		s.udp.Close()
	}
	if s.tcp != nil {
		s.tcp.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) maxUDP() int {
	if s.MaxUDP > 0 {
		return s.MaxUDP
	}
	return 512
}

func (s *Server) serveUDP(conn *net.UDPConn) {
	defer s.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, remote, err := conn.ReadFromUDP(buf)
		if err != nil {
			if s.closing() {
				return
			}
			s.logf("dnswire: udp read: %v", err)
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		s.wg.Add(1)
		go func(pkt []byte, remote *net.UDPAddr) {
			defer s.wg.Done()
			resp := s.respond(pkt, remote)
			if resp == nil {
				return
			}
			out, err := resp.Pack()
			if err != nil {
				s.logf("dnswire: pack: %v", err)
				return
			}
			if len(out) > s.maxUDP() {
				resp.Header.Truncated = true
				resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
				out, err = resp.Pack()
				if err != nil {
					return
				}
			}
			if _, err := conn.WriteToUDP(out, remote); err != nil && !s.closing() {
				s.logf("dnswire: udp write: %v", err)
			}
		}(pkt, remote)
	}
}

//lint:ignore determinism-taint -- per-connection idle deadlines on the live test wire; no decoded answer bytes derive from the clock
func (s *Server) serveTCP(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closing() {
				return
			}
			s.logf("dnswire: tcp accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			for {
				pkt, err := readTCPMessage(conn)
				if err != nil {
					return
				}
				resp := s.respond(pkt, conn.RemoteAddr())
				if resp == nil {
					return
				}
				out, err := resp.Pack()
				if err != nil {
					return
				}
				if err := writeTCPMessage(conn, out); err != nil {
					return
				}
			}
		}(conn)
	}
}

func (s *Server) respond(pkt []byte, remote net.Addr) *Message {
	q, err := Unpack(pkt)
	if err != nil {
		s.logf("dnswire: malformed query from %v: %v", remote, err)
		return nil
	}
	resp := s.Handler.ServeDNS(q, remote)
	if resp == nil {
		resp = q.Reply()
		resp.Header.RCode = RCodeServFail
	}
	return resp
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

func readTCPMessage(r io.Reader) ([]byte, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lb[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeTCPMessage(w io.Writer, pkt []byte) error {
	var lb [2]byte
	binary.BigEndian.PutUint16(lb[:], uint16(len(pkt)))
	if _, err := w.Write(lb[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}

// Exchange is a one-shot client: it sends the query over UDP with the
// given timeout and falls back to TCP when the answer is truncated.
//
//lint:ignore determinism-taint -- socket-deadline fallback when the context carries none; the wire bytes exchanged are clock-free
func Exchange(ctx context.Context, server string, q *Message) (*Message, error) {
	pkt, err := q.Pack()
	if err != nil {
		return nil, err
	}
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "udp", server)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Now().Add(5 * time.Second))
	}
	if _, err := conn.Write(pkt); err != nil {
		conn.Close()
		return nil, err
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	conn.Close()
	if err != nil {
		return nil, err
	}
	resp, err := Unpack(buf[:n])
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != q.Header.ID {
		return nil, errors.New("dnswire: response ID mismatch")
	}
	if !resp.Header.Truncated {
		return resp, nil
	}
	// Retry over TCP.
	tconn, err := d.DialContext(ctx, "tcp", server)
	if err != nil {
		return nil, err
	}
	defer tconn.Close()
	if dl, ok := ctx.Deadline(); ok {
		tconn.SetDeadline(dl)
	} else {
		tconn.SetDeadline(time.Now().Add(5 * time.Second))
	}
	if err := writeTCPMessage(tconn, pkt); err != nil {
		return nil, err
	}
	raw, err := readTCPMessage(tconn)
	if err != nil {
		return nil, err
	}
	resp, err = Unpack(raw)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != q.Header.ID {
		return nil, errors.New("dnswire: response ID mismatch")
	}
	return resp, nil
}
