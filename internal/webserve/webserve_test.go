package webserve

import (
	"crypto/tls"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/webgen"
	"repro/internal/world"
)

// TestCertificateForBuildsTheCountry: SNI names of a country whose
// pages are not built yet — a landing host, its www. alias and a
// SAN-only affiliate — must still find their certificate, building
// that country and no other.
func TestCertificateForBuildsTheCountry(t *testing.T) {
	w := world.New()
	e := webgen.Build(w, netsim.Build(w, 42), world.BuildProfiles(w, 42), 42, 0.02)
	var san *webgen.Site
	for _, site := range e.SiteList {
		if site.Kind == webgen.KindSANOnly {
			san = site
			break
		}
	}
	if san == nil {
		t.Fatal("no SAN-only site at this scale")
	}
	var landing string
	for _, site := range e.ByCountry[san.Country] {
		if len(site.Landing) > 0 {
			landing = site.Host
			break
		}
	}
	s := &Server{Estate: e}
	for _, name := range []string{san.Host, "www." + landing, landing} {
		if _, err := s.certificateFor(&tls.ClientHelloInfo{ServerName: name}); err != nil {
			t.Fatalf("SNI %s: %v", name, err)
		}
	}
	if built := e.BuiltCountries(); !slices.Equal(built, []string{san.Country}) {
		t.Fatalf("built %v, want [%s]", built, san.Country)
	}
}

// TestCloseReportsServeFailure: a Serve loop that dies after startup
// (here: its listener closed out from under it) must surface from
// Close instead of vanishing into the goroutine.
func TestCloseReportsServeFailure(t *testing.T) {
	s := &Server{}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.listener.Close() // kill the accept loop behind Serve's back

	// Serve fails asynchronously; wait for the capture.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.errMu.Lock()
		n := len(s.serveErrs)
		s.errMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serve failure never captured")
		}
		time.Sleep(time.Millisecond)
	}

	err := s.Close()
	if err == nil {
		t.Fatal("Close() = nil after the serve loop died")
	}
	if !strings.Contains(err.Error(), "use of closed network connection") {
		t.Errorf("Close() = %v, want the listener failure", err)
	}
	// The failure is reported once, not resurfaced forever.
	if err := s.Close(); err != nil {
		t.Errorf("second Close() = %v, want nil", err)
	}
}

// TestCloseCleanShutdown: a normal lifecycle reports no error —
// http.ErrServerClosed is the expected Serve result, not a failure.
func TestCloseCleanShutdown(t *testing.T) {
	s := &Server{}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no bound address")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close() = %v, want nil", err)
	}
}

// TestStartTLSCaptureOnDeadListener mirrors the HTTP case for the TLS
// serve loop.
func TestStartTLSCaptureOnDeadListener(t *testing.T) {
	s := &Server{}
	if _, err := s.StartTLS("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.tlsListener.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.errMu.Lock()
		n := len(s.serveErrs)
		s.errMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TLS serve failure never captured")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close() = nil after the TLS serve loop died")
	}
}
