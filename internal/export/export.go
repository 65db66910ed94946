// Package export persists and reloads study datasets. The paper makes
// its dataset "available upon request" (§1); this package defines that
// interchange format: a JSON-lines stream (one annotated URL record
// per line, with a header object carrying study metadata and trailing
// per-country coverage-statistics lines) and a CSV variant for
// spreadsheet-bound consumers. Round-tripping is lossless for every
// field the analyses read, so a saved dataset can be re-analysed
// without re-running the pipeline — including the failure taxonomy a
// chaos run produces.
package export

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/jsonrec"
	"repro/internal/world"
)

// FormatVersion identifies the interchange format. Version 3 moved the
// record/topsite/country counts from the header to a trailing trailer
// line, so a writer can stream records as they become available
// without knowing the totals up front — truncation detection now rests
// on the trailer's presence. Version 2 added per-country coverage
// statistics lines (kind "country"); version 1 and 2 files still load,
// with counts checked against their headers.
const FormatVersion = 3

// header is the first line of a JSONL export. The count fields are
// only written by pre-v3 files; v3 moved them to the trailer.
type header struct {
	Format    string  `json:"format"`
	Version   int     `json:"version"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Records   int     `json:"records,omitempty"`
	Topsite   int     `json:"topsites,omitempty"`
	Countries int     `json:"countries,omitempty"`
}

// trailer is the last line of a v3 JSONL export: the counts a reader
// checks to detect truncation. A v3 file without a trailer is
// truncated by definition.
type trailer struct {
	Kind      string `json:"kind"` // "trailer"
	Records   int    `json:"records"`
	Topsite   int    `json:"topsites"`
	Countries int    `json:"countries"`
}

// jsonCountryStats is the wire form of one country's statistics,
// including the coverage/failure accounting of Tables 3–4.
type jsonCountryStats struct {
	Kind            string         `json:"kind"` // "country"
	Country         string         `json:"country"`
	Region          string         `json:"region"`
	LandingURLs     int            `json:"landingURLs"`
	InternalURLs    int            `json:"internalURLs"`
	Hostnames       int            `json:"hostnames"`
	Attempted       int            `json:"attempted,omitempty"`
	FailedURLs      int            `json:"failedURLs,omitempty"`
	Failures        map[string]int `json:"failures,omitempty"`
	Retries         int            `json:"retries,omitempty"`
	VantageAttempts int            `json:"vantageAttempts,omitempty"`
	Failed          bool           `json:"failed,omitempty"`
	FailureReason   string         `json:"failureReason,omitempty"`
}

func statsToWire(s *dataset.CountryStats) jsonCountryStats {
	return jsonCountryStats{
		Kind: "country", Country: s.Country, Region: string(s.Region),
		LandingURLs: s.LandingURLs, InternalURLs: s.InternalURLs, Hostnames: s.Hostnames,
		Attempted: s.Attempted, FailedURLs: s.FailedURLs, Failures: s.Failures,
		Retries: s.Retries, VantageAttempts: s.VantageAttempts,
		Failed: s.Failed, FailureReason: s.FailureReason,
	}
}

// statsFromWire converts a decoded statistics line. An empty failure
// map reads as nil, since the writer omits it, so every loaded dataset
// round-trips through WriteJSONL unchanged.
func statsFromWire(w *jsonCountryStats) *dataset.CountryStats {
	if len(w.Failures) == 0 {
		w.Failures = nil
	}
	return &dataset.CountryStats{
		Country: w.Country, Region: world.Region(w.Region),
		LandingURLs: w.LandingURLs, InternalURLs: w.InternalURLs, Hostnames: w.Hostnames,
		Attempted: w.Attempted, FailedURLs: w.FailedURLs, Failures: w.Failures,
		Retries: w.Retries, VantageAttempts: w.VantageAttempts,
		Failed: w.Failed, FailureReason: w.FailureReason,
	}
}

// jsonRecord is the wire form of a URL record.
type jsonRecord struct {
	URL          string `json:"url"`
	Host         string `json:"host"`
	Country      string `json:"country"`
	Region       string `json:"region"`
	Bytes        int64  `json:"bytes"`
	Depth        int    `json:"depth"`
	Method       string `json:"method,omitempty"`
	IP           string `json:"ip"`
	ASN          int    `json:"asn"`
	Org          string `json:"org"`
	RegCountry   string `json:"regCountry"`
	GovAS        bool   `json:"govAS,omitempty"`
	Anycast      bool   `json:"anycast,omitempty"`
	ServeCountry string `json:"serveCountry,omitempty"`
	GeoMethod    string `json:"geoMethod,omitempty"`
	Category     int    `json:"category"`
	TopsiteSelf  bool   `json:"topsiteSelf,omitempty"`
	HTTPSValid   bool   `json:"httpsValid,omitempty"`
	Kind         string `json:"kind"` // "gov" or "topsite"
}

func toWire(r *dataset.URLRecord, kind string) jsonRecord {
	return jsonRecord{
		URL: r.URL, Host: r.Host, Country: r.Country, Region: string(r.Region),
		Bytes: r.Bytes, Depth: r.Depth, Method: r.Method,
		IP: r.IP.String(), ASN: r.ASN, Org: r.Org, RegCountry: r.RegCountry,
		GovAS: r.GovAS, Anycast: r.Anycast,
		ServeCountry: r.ServeCountry, GeoMethod: r.GeoMethod,
		Category: int(r.Category), TopsiteSelf: r.TopsiteSelf, HTTPSValid: r.HTTPSValid, Kind: kind,
	}
}

// Sink writes a JSONL export incrementally: the header goes out at
// construction, record batches stream as they arrive (no whole-dataset
// buffer), per-country statistics are buffered and emitted in sorted
// code order at Close, and the trailer seals the file. Byte output is
// a pure function of the data written — interleaving WriteRecords
// batches differently produces the same bytes as one batch, which is
// what makes the sink's output identical to WriteJSONL's for the same
// dataset. Writes after the first error return that error; a Sink is
// not safe for concurrent use.
type Sink struct {
	bw       *bufio.Writer
	enc      *json.Encoder
	records  int
	topsites int
	stats    []jsonCountryStats
	closed   bool
	err      error
}

// NewSink starts a JSONL export on w with the study metadata header.
func NewSink(w io.Writer, seed int64, scale float64) (*Sink, error) {
	bw := bufio.NewWriter(w)
	s := &Sink{bw: bw, enc: json.NewEncoder(bw)}
	s.err = s.enc.Encode(header{
		Format: "govhost-dataset", Version: FormatVersion,
		Seed: seed, Scale: scale,
	})
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// WriteRecords streams one batch of government records.
func (s *Sink) WriteRecords(recs []dataset.URLRecord) error {
	return s.writeBatch(recs, "gov", &s.records)
}

// WriteTopsites streams one batch of topsite comparison records. The
// format puts topsites after all government records; the sink trusts
// the caller's ordering (WriteJSONL and the pipeline both satisfy it).
func (s *Sink) WriteTopsites(recs []dataset.URLRecord) error {
	return s.writeBatch(recs, "topsite", &s.topsites)
}

func (s *Sink) writeBatch(recs []dataset.URLRecord, kind string, n *int) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = fmt.Errorf("export: write after Close")
		return s.err
	}
	for i := range recs {
		if s.err = s.enc.Encode(toWire(&recs[i], kind)); s.err != nil {
			return s.err
		}
		*n++
	}
	return nil
}

// WriteCountry buffers one country's coverage statistics; Close emits
// them in sorted code order so equal datasets serialise to equal bytes
// regardless of completion order.
func (s *Sink) WriteCountry(st *dataset.CountryStats) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = fmt.Errorf("export: write after Close")
		return s.err
	}
	s.stats = append(s.stats, statsToWire(st))
	return nil
}

// Close emits the buffered country statistics and the trailer, then
// flushes. The sink is unusable afterwards.
func (s *Sink) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	s.closed = true
	sort.Slice(s.stats, func(i, j int) bool { return s.stats[i].Country < s.stats[j].Country })
	for i := range s.stats {
		if s.err = s.enc.Encode(s.stats[i]); s.err != nil {
			return s.err
		}
	}
	if s.err = s.enc.Encode(trailer{
		Kind: "trailer", Records: s.records, Topsite: s.topsites, Countries: len(s.stats),
	}); s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// WriteJSONL streams the dataset as JSON lines: a header object, one
// record object per line, then one coverage-statistics object per
// country in sorted code order, sealed by the trailer (so equal
// datasets serialise to equal bytes). It is the one-shot form of Sink.
func WriteJSONL(w io.Writer, ds *dataset.Dataset) error {
	s, err := NewSink(w, ds.Seed, ds.Scale)
	if err != nil {
		return err
	}
	if err := s.WriteRecords(ds.Records); err != nil {
		return err
	}
	if err := s.WriteTopsites(ds.Topsites); err != nil {
		return err
	}
	for _, st := range ds.PerCountry {
		if err := s.WriteCountry(st); err != nil {
			return err
		}
	}
	return s.Close()
}

// maxLine bounds one JSONL line; URL records are a few hundred bytes,
// so 1 MiB is comfortably paranoid.
const maxLine = 1 << 20

// LineError reports a malformed line of a JSONL export, naming it by
// its 1-based line number.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("export: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ReadJSONL reloads a dataset written by WriteJSONL, including the
// per-country coverage statistics (absent from version-1 files, which
// still load). Dataset totals are not part of the interchange format;
// the caller re-derives what it needs from records and stats. Record
// lines are decoded in one pass by jsonrec; the rare header, country
// and trailer lines go through encoding/json. A malformed line is
// reported as a *LineError.
func ReadJSONL(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	line := 1
	bad := func(err error) error { return &LineError{Line: line, Err: err} }
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, bad(fmt.Errorf("header: %w", err))
		}
		return nil, fmt.Errorf("export: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, bad(fmt.Errorf("header: %w", err))
	}
	if h.Format != "govhost-dataset" {
		return nil, bad(fmt.Errorf("not a govhost dataset (format %q)", h.Format))
	}
	if h.Version < 1 || h.Version > FormatVersion {
		return nil, bad(fmt.Errorf("unsupported version %d", h.Version))
	}
	ds := &dataset.Dataset{
		Seed: h.Seed, Scale: h.Scale,
		PerCountry: map[string]*dataset.CountryStats{},
	}
	dec := jsonrec.NewDecoder(jsonrec.ExportKeys)
	var tr *trailer
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if tr != nil {
			return nil, bad(errors.New("content after trailer"))
		}
		var rec dataset.URLRecord
		kind, err := dec.Line(b, &rec)
		if err != nil {
			return nil, bad(fmt.Errorf("record: %w", err))
		}
		switch kind {
		case "gov", "topsite":
			if !rec.IP.IsValid() {
				return nil, bad(fmt.Errorf("record %q: missing IP", rec.URL))
			}
			if rec.Category < 0 || rec.Category >= world.NumCategories {
				return nil, bad(fmt.Errorf("record %q: bad category %d", rec.URL, rec.Category))
			}
			if kind == "gov" {
				ds.Records = append(ds.Records, rec)
			} else {
				ds.Topsites = append(ds.Topsites, rec)
			}
		case "country":
			var w jsonCountryStats
			if err := json.Unmarshal(b, &w); err != nil {
				return nil, bad(fmt.Errorf("country stats: %w", err))
			}
			ds.PerCountry[w.Country] = statsFromWire(&w)
		case "trailer":
			var t trailer
			if err := json.Unmarshal(b, &t); err != nil {
				return nil, bad(fmt.Errorf("trailer: %w", err))
			}
			tr = &t
		default:
			return nil, bad(fmt.Errorf("unknown kind %q", kind))
		}
	}
	if err := sc.Err(); err != nil {
		line++
		return nil, bad(err)
	}
	wantRecords, wantTopsites, wantCountries := h.Records, h.Topsite, h.Countries
	if h.Version >= 3 {
		// v3 carries its counts in the trailer; a missing trailer is the
		// truncation signal a killed writer leaves behind.
		if tr == nil {
			return nil, fmt.Errorf("export: truncated dataset: no trailer")
		}
		wantRecords, wantTopsites, wantCountries = tr.Records, tr.Topsite, tr.Countries
	}
	if len(ds.Records) != wantRecords || len(ds.Topsites) != wantTopsites {
		return nil, fmt.Errorf("export: truncated dataset: %d/%d records, %d/%d topsites",
			len(ds.Records), wantRecords, len(ds.Topsites), wantTopsites)
	}
	if h.Version >= 2 && len(ds.PerCountry) != wantCountries {
		return nil, fmt.Errorf("export: truncated dataset: %d/%d country stats",
			len(ds.PerCountry), wantCountries)
	}
	return ds, nil
}

// csvHeader is the column layout of the CSV export.
var csvHeader = []string{
	"url", "host", "country", "region", "bytes", "depth", "method",
	"ip", "asn", "org", "reg_country", "gov_as", "anycast",
	"serve_country", "geo_method", "category", "topsite_self",
	"https_valid", "kind",
}

// WriteCSV writes the dataset as CSV with a header row.
func WriteCSV(w io.Writer, ds *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	emit := func(r *dataset.URLRecord, kind string) error {
		return cw.Write([]string{
			r.URL, r.Host, r.Country, string(r.Region),
			strconv.FormatInt(r.Bytes, 10), strconv.Itoa(r.Depth), r.Method,
			r.IP.String(), strconv.Itoa(r.ASN), r.Org, r.RegCountry,
			strconv.FormatBool(r.GovAS), strconv.FormatBool(r.Anycast),
			r.ServeCountry, r.GeoMethod, r.Category.String(),
			strconv.FormatBool(r.TopsiteSelf), strconv.FormatBool(r.HTTPSValid), kind,
		})
	}
	for i := range ds.Records {
		if err := emit(&ds.Records[i], "gov"); err != nil {
			return err
		}
	}
	for i := range ds.Topsites {
		if err := emit(&ds.Topsites[i], "topsite"); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
