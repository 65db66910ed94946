// Package webserve serves the synthetic estate over real HTTP. One
// server multiplexes every hostname via the Host header, enforces
// geo-blocking against the declared vantage country, and streams
// byte-accurate bodies — integration tests and examples crawl it with
// net/http exactly as the paper's harness crawled the live web.
package webserve

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tlssim"
	"repro/internal/webgen"
)

// VantageHeader carries the crawler's vantage country; the VPN egress
// country in the real study. Geo-blocked sites compare it to their own
// country.
const VantageHeader = "X-Vantage-Country"

// Server serves an estate.
type Server struct {
	Estate *webgen.Estate

	httpSrv     *http.Server
	tlsSrv      *http.Server
	listener    net.Listener
	tlsListener net.Listener

	errMu     sync.Mutex
	serveErrs []error

	certMu    sync.Mutex
	certCache map[string]*tls.Certificate
}

// serve runs srv.Serve(ln) in the background and captures any real
// failure — a Serve that dies (port stolen, fd exhaustion) used to
// vanish into a bare goroutine, leaving clients to diagnose it from
// connection refusals. http.ErrServerClosed is the normal shutdown
// path and is not recorded.
func (s *Server) serve(srv *http.Server, ln net.Listener) {
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.errMu.Lock()
			s.serveErrs = append(s.serveErrs, err)
			s.errMu.Unlock()
			ln.Close() // the listener is useless once Serve has failed
		}
	}()
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns the bound address. Serve failures after startup surface
// from Close.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.serve(s.httpSrv, ln)
	return ln.Addr().String(), nil
}

// StartTLS additionally serves the estate over TLS with per-site
// certificates selected by SNI, materialised on demand from the
// estate's certificate records. The §3.3 SAN-inspection step can then
// run against real handshakes. Returns the bound TLS address. Serve
// failures after startup surface from Close.
//
//lint:ignore test-only-export -- vantage's TestSANInspectionOverTLS and TestTLSRequiresKnownSNI run the §3.3 SAN inspection over real handshakes
func (s *Server) StartTLS(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.tlsListener = ln
	cfg := &tls.Config{GetCertificate: s.certificateFor}
	s.tlsSrv = &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.serve(s.tlsSrv, tls.NewListener(ln, cfg))
	return ln.Addr().String(), nil
}

// certificateFor self-signs (and caches) the estate certificate for
// the requested server name.
func (s *Server) certificateFor(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
	name := hello.ServerName
	if name == "" {
		return nil, fmt.Errorf("webserve: TLS connection without SNI")
	}
	s.certMu.Lock()
	defer s.certMu.Unlock()
	if s.certCache == nil {
		s.certCache = map[string]*tls.Certificate{}
	}
	if c, ok := s.certCache[name]; ok {
		return c, nil
	}
	// Certificates exist once their country is built: resolve the
	// name's site (or the apex of a www. alias) through the estate.
	if s.Estate.Site(name) == nil {
		s.Estate.Site(strings.TrimPrefix(name, "www."))
	}
	rec := s.Estate.Certs.Get(name)
	if rec == nil {
		return nil, fmt.Errorf("webserve: no certificate for %q", name)
	}
	cert, err := tlssim.SelfSign(rec, time.Now().Add(-time.Hour))
	if err != nil {
		return nil, err
	}
	s.certCache[name] = &cert
	return &cert, nil
}

// Close shuts the server down and reports any serve-loop failure that
// occurred since Start/StartTLS, joined with any shutdown error.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var errs []error
	if s.tlsSrv != nil {
		if err := s.tlsSrv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	s.errMu.Lock()
	errs = append(errs, s.serveErrs...)
	s.serveErrs = nil
	s.errMu.Unlock()
	return errors.Join(errs...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if h, _, err := net.SplitHostPort(r.Host); err == nil {
		host = h
	}
	site := s.Estate.Site(host)
	if site == nil {
		http.Error(w, fmt.Sprintf("unknown host %q", host), http.StatusBadGateway)
		return
	}
	vantage := r.Header.Get(VantageHeader)
	if site.GeoBlocked && vantage != site.Country {
		http.Error(w, "access restricted to domestic visitors", http.StatusForbidden)
		return
	}
	path := r.URL.Path
	if path == "" {
		path = "/"
	}
	page := site.Pages[path]
	if page == nil {
		http.NotFound(w, r)
		return
	}
	var body []byte
	if page.ContentType == "text/html" {
		body = webgen.RenderHTML(site, page, true)
	} else {
		body = webgen.RenderResource(page, true)
	}
	w.Header().Set("Content-Type", page.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Served-By", site.Endpoint.Addr.String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
