package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Source names where a reload should pull the next snapshot from.
type Source struct {
	Kind string `json:"kind"` // "jsonl" or "checkpoint"
	Path string `json:"path"`
}

// ReloadFunc builds a fresh snapshot from a source. The daemon calls
// it on /admin/reload and SIGHUP; the old snapshot keeps serving until
// the func returns successfully.
type ReloadFunc func(ctx context.Context, src Source) (*Snapshot, error)

// Config assembles a Server.
type Config struct {
	// Snapshot is the initial serving generation (required).
	Snapshot *Snapshot
	// Registry receives request, cache, and reload metrics; nil
	// allocates a private one. /metrics exports it live.
	Registry *metrics.Registry
	// Workers bounds how many requests render concurrently; requests
	// beyond it queue in the scheduler rather than spawning
	// goroutines. 0 picks 8.
	Workers int
	// Reloader serves /admin/reload; nil makes reloads answer 501.
	Reloader ReloadFunc
}

// Server is the HTTP face of the daemon: an atomic snapshot pointer,
// a bounded render pool, and the admin plumbing around them. Handlers
// load the pointer exactly once per request, so every response is
// internally consistent with a single snapshot generation even while
// a reload swaps the pointer underneath them.
type Server struct {
	reg      *metrics.Registry
	pool     *sched.Pool
	reloader ReloadFunc

	snap     atomic.Pointer[Snapshot]
	draining atomic.Bool
	reloadMu sync.Mutex // serializes reloads; requests never take it

	mux     *http.ServeMux
	httpSrv *http.Server
}

// New builds a Server around cfg.Snapshot.
func New(cfg Config) *Server {
	if cfg.Snapshot == nil {
		panic("serve: Config.Snapshot is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = &metrics.Registry{}
	}
	s := &Server{
		reg:      reg,
		pool:     sched.NewPool(sched.ResolveWorkers(cfg.Workers)),
		reloader: cfg.Reloader,
		mux:      http.NewServeMux(),
	}
	s.snap.Store(cfg.Snapshot)
	for i := range endpoints {
		name := endpoints[i].name
		s.mux.HandleFunc("/api/"+name, s.apiHandler(name))
	}
	s.mux.HandleFunc("/healthz", s.healthHandler)
	s.mux.HandleFunc("/version", s.versionHandler)
	s.mux.HandleFunc("/metrics", s.metricsHandler)
	s.mux.HandleFunc("/admin/reload", s.reloadHandler)
	s.httpSrv = &http.Server{Handler: s.mux}
	return s
}

// Serve accepts connections on ln until Shutdown. It reports nil on a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: new requests are refused immediately,
// in-flight ones finish (bounded by ctx), then the render pool winds
// down. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	s.pool.Close()
	return err
}

// Reload builds a snapshot from src and swaps it in. On error the old
// snapshot keeps serving and the error is returned as-is, so callers
// can inspect it (the HTTP handler maps checkpoint manifest
// mismatches to 409 and other load failures to 422).
func (s *Server) Reload(ctx context.Context, src Source) (*Snapshot, error) {
	if s.reloader == nil {
		return nil, &apiError{Status: 501, Code: "reload-disabled",
			Message: "this daemon was started without a reloader"}
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	next, err := s.reloader(ctx, src)
	if err != nil {
		s.reg.Serve.RecordReload(false)
		return nil, err
	}
	s.snap.Store(next)
	s.reg.Serve.RecordReload(true)
	return next, nil
}

// apiHandler wraps one endpoint: drain check, in-flight accounting,
// bounded render through the pool, conditional-request handling,
// latency recording. A 200 with a canonical parameter set carries a
// strong ETag (version + canonical-key digest); when the request's
// If-None-Match matches it, the handler answers 304 with the tag and
// version headers and no body — the client's cached bytes are the
// ones this snapshot would have served.
func (s *Server) apiHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		//lint:ignore nondeterminism -- request latency is wall-clock by definition; it feeds the Runtime metrics half only
		start := time.Now()
		sm := &s.reg.Serve
		status := http.StatusServiceUnavailable
		if s.draining.Load() {
			s.writeRefusal(w, name, status, "draining", "daemon is shutting down")
		} else {
			sm.InFlight.Inc()
			ran := s.pool.Do(r.Context(), func() {
				snap := s.snap.Load()
				var body []byte
				body, status = snap.respond(name, r.URL.Query(), sm)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("X-Dataset-Version", snap.Version())
				if status == http.StatusOK {
					if tag := ETagFor(snap.Version(), name, r.URL.Query()); tag != "" {
						w.Header().Set("ETag", tag)
						if etagMatch(r.Header.Get("If-None-Match"), tag) {
							status = http.StatusNotModified
							sm.RecordNotModified()
							w.WriteHeader(status)
							return
						}
					}
				}
				w.WriteHeader(status)
				w.Write(body)
			})
			sm.InFlight.Dec()
			if !ran {
				status = http.StatusServiceUnavailable
				s.writeRefusal(w, name, status, "canceled", "request canceled before a worker was free")
			}
		}
		//lint:ignore nondeterminism -- request latency is wall-clock by definition; it feeds the Runtime metrics half only
		sm.RecordRequest(name, status, time.Since(start))
	}
}

// writeRefusal answers a request the render path never saw.
func (s *Server) writeRefusal(w http.ResponseWriter, name string, status int, code, msg string) {
	body, _ := marshalError(s.snap.Load().Version(), name, &apiError{Status: status, Code: code, Message: msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) healthHandler(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{
		"status":  status,
		"version": s.snap.Load().Version(),
	})
}

func (s *Server) versionHandler(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"version":   snap.Version(),
		"source":    snap.Desc(),
		"records":   len(snap.ds.Records),
		"countries": len(snap.Countries()),
		"endpoints": EndpointNames(),
	})
}

func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// reloadHandler maps Reload results onto typed statuses: 409 for a
// checkpoint whose manifest diverges from the requesting
// configuration (naming the first divergent field), 422 for any other
// load failure. Either way the previous snapshot keeps serving.
func (s *Server) reloadHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	src, aerr := reloadSource(r)
	if aerr != nil {
		writeJSON(w, aerr.Status, errorEnvelope{Version: s.snap.Load().Version(), Error: aerr})
		return
	}
	prev := s.snap.Load()
	next, err := s.Reload(r.Context(), src)
	if err != nil {
		aerr := reloadError(err)
		writeJSON(w, aerr.Status, errorEnvelope{Version: prev.Version(), Error: aerr})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":      next.Version(),
		"prev_version": prev.Version(),
		"source":       next.Desc(),
		"records":      len(next.ds.Records),
	})
}

// reloadSource parses the ?jsonl= / ?checkpoint= selector.
func reloadSource(r *http.Request) (Source, *apiError) {
	jsonl := r.URL.Query().Get("jsonl")
	ckpt := r.URL.Query().Get("checkpoint")
	switch {
	case jsonl != "" && ckpt != "":
		return Source{}, &apiError{Status: 400, Code: "ambiguous-source",
			Message: "pass exactly one of jsonl= or checkpoint="}
	case jsonl != "":
		return Source{Kind: "jsonl", Path: jsonl}, nil
	case ckpt != "":
		return Source{Kind: "checkpoint", Path: ckpt}, nil
	}
	return Source{}, &apiError{Status: 400, Code: "missing-source",
		Message: "pass one of jsonl= or checkpoint="}
}

// reloadError types a reload failure for the wire.
func reloadError(err error) *apiError {
	var aerr *apiError
	if errors.As(err, &aerr) {
		return aerr
	}
	var mm *checkpoint.MismatchError
	if errors.As(err, &mm) {
		return &apiError{Status: http.StatusConflict, Code: "manifest-mismatch",
			Field: mm.Field, Stored: mm.Stored, Want: mm.Want, Message: err.Error()}
	}
	return &apiError{Status: http.StatusUnprocessableEntity, Code: "load-failed",
		Message: err.Error()}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
