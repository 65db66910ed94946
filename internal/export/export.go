// Package export persists and reloads study datasets. The paper makes
// its dataset "available upon request" (§1); this package defines that
// interchange format: a JSON-lines stream (a header object carrying
// study metadata, one annotated URL record per line, per-country
// coverage-statistics lines, and a trailer with the counts) and a CSV
// variant for spreadsheet-bound consumers. A record line is a
// dataset.URLRecord and a country line a dataset.CountryStats, each
// encoded under the type's own json tags with the line's kind added, so
// the schema is written down once, on the dataset types, and a
// checkpoint stores records and rows under the same keys. Only the
// current FormatVersion is read back; no writer produces any other.
// Round-tripping is lossless for every field the analyses read, so a
// saved dataset can be re-analysed without re-running the pipeline —
// including the failure taxonomy a chaos run produces.
package export

import (
	"bufio"
	"bytes"
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

// FormatVersion identifies the interchange format, and it is the only
// version ReadJSONL accepts. The record, topsite and country counts sit
// in a trailer line after the data, so truncation detection rests on
// the trailer's presence; per-country coverage statistics are lines of
// kind "country".
const FormatVersion = 3

// header is the first line of a JSONL export.
type header struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
}

// trailer is the last line of a JSONL export: the counts a reader
// checks to detect truncation. A file without a trailer is truncated
// by definition.
type trailer struct {
	Kind      string `json:"kind"` // "trailer"
	Records   int    `json:"records"`
	Topsite   int    `json:"topsites"`
	Countries int    `json:"countries"`
}

// countryLine is a country's coverage-statistics line: the kind
// "country", then the row's own json fields.
type countryLine struct {
	Kind string `json:"kind"`
	*dataset.CountryStats
}

// WriteJSONL writes the dataset as JSON lines: a header object, one
// record object per line (government records, then topsites), one
// coverage-statistics object per country in sorted code order, and
// the trailer with the counts a reader checks. Output is a pure
// function of the dataset, so equal datasets serialise to equal bytes.
// A record line is the record's own json fields, then the line's kind,
// "gov" or "topsite", encoded by jsonrec.AppendRecord into one reused
// buffer; the few other lines go through encoding/json.
func WriteJSONL(w io.Writer, ds *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format: "govhost-dataset", Version: FormatVersion,
		Seed: ds.Seed, Scale: ds.Scale,
	}); err != nil {
		return err
	}
	var line []byte
	for _, part := range [...]struct {
		recs []dataset.URLRecord
		tail string
	}{{ds.Records, `,"kind":"gov"}` + "\n"}, {ds.Topsites, `,"kind":"topsite"}` + "\n"}} {
		for i := range part.recs {
			line = append(jsonrec.AppendRecord(line[:0], &part.recs[i]), part.tail...)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	codes := make([]string, 0, len(ds.PerCountry))
	for code := range ds.PerCountry {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		if err := enc.Encode(countryLine{"country", ds.PerCountry[code]}); err != nil {
			return err
		}
	}
	if err := enc.Encode(trailer{
		Kind: "trailer", Records: len(ds.Records), Topsite: len(ds.Topsites), Countries: len(codes),
	}); err != nil {
		return err
	}
	return bw.Flush()
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
// per-country coverage statistics. Dataset totals are not part of the
// interchange format; the caller re-derives what it needs from records
// and stats. Record lines are decoded in one pass by jsonrec; the rare
// header, country and trailer lines go through encoding/json. A
// malformed line, including a header of any version other than
// FormatVersion, is reported as a *LineError.
//
// When r can also be read at an offset and sought (an *os.File, a
// bytes.Reader, a strings.Reader), the record slices are allocated
// once, sized by the trailer's counts read from the end of the input;
// any other reader grows them as lines arrive.
func ReadJSONL(r io.Reader) (*dataset.Dataset, error) {
	nrec, ntop, err := sizeHint(r)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
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
	if h.Version != FormatVersion {
		return nil, bad(fmt.Errorf("unsupported version %d", h.Version))
	}
	ds := &dataset.Dataset{
		Seed: h.Seed, Scale: h.Scale,
		PerCountry: map[string]*dataset.CountryStats{},
	}
	if nrec > 0 {
		ds.Records = make([]dataset.URLRecord, 0, nrec)
	}
	if ntop > 0 {
		ds.Topsites = make([]dataset.URLRecord, 0, ntop)
	}
	dec := jsonrec.NewDecoder()
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
			st := new(dataset.CountryStats)
			if err := json.Unmarshal(b, st); err != nil {
				return nil, bad(fmt.Errorf("country stats: %w", err))
			}
			// The writer omits an empty failure map, so it reads as nil
			// and every loaded dataset round-trips unchanged.
			if len(st.Failures) == 0 {
				st.Failures = nil
			}
			ds.PerCountry[st.Country] = st
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
	// A missing trailer is the truncation signal a killed writer leaves
	// behind.
	if tr == nil {
		return nil, fmt.Errorf("export: truncated dataset: no trailer")
	}
	if len(ds.Records) != tr.Records || len(ds.Topsites) != tr.Topsite {
		return nil, fmt.Errorf("export: truncated dataset: %d/%d records, %d/%d topsites",
			len(ds.Records), tr.Records, len(ds.Topsites), tr.Topsite)
	}
	if len(ds.PerCountry) != tr.Countries {
		return nil, fmt.Errorf("export: truncated dataset: %d/%d country stats",
			len(ds.PerCountry), tr.Countries)
	}
	return ds, nil
}

// minRecordLine is the length of the shortest record line ReadJSONL
// accepts, {"ip":"::","kind":"gov"} and its newline: an input of n
// bytes holds at most n/minRecordLine records.
const minRecordLine = len(`{"ip":"::","kind":"gov"}`) + 1

// sizeHint returns the record and topsite counts of the trailer at the
// end of r, when r can be read at an offset and sought, leaving r's
// offset where it was. Their sum is capped at the record lines the
// input's size can hold, so a lying trailer cannot force a large
// allocation. Any other reader, or an input whose last line is not a
// trailer, gets (0, 0). The counts only size allocations: the trailer
// is still validated as the last line.
func sizeHint(r io.Reader) (records, topsites int, err error) {
	rs, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	})
	if !ok {
		return 0, 0, nil
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0, nil
	}
	end, err := rs.Seek(0, io.SeekEnd)
	if _, serr := rs.Seek(start, io.SeekStart); serr != nil {
		return 0, 0, serr
	}
	if err != nil || end <= start {
		return 0, 0, nil
	}
	var buf [256]byte
	tail := buf[:min(int64(len(buf)), end-start)]
	if n, _ := rs.ReadAt(tail, end-int64(len(tail))); n != len(tail) {
		return 0, 0, nil
	}
	tail = bytes.TrimSuffix(tail, []byte("\n"))
	i := bytes.LastIndexByte(tail, '\n')
	var t trailer
	if i < 0 || json.Unmarshal(tail[i+1:], &t) != nil || t.Kind != "trailer" {
		return 0, 0, nil
	}
	limit := int((end - start) / int64(minRecordLine))
	records = min(max(t.Records, 0), limit)
	topsites = min(max(t.Topsite, 0), limit-records)
	return records, topsites, nil
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
