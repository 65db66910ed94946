package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/dataset"
	"repro/internal/world"
)

// readJSONLReference is the encoding/json reading of a JSONL export:
// every line decoded reflectively into the tagged dataset types, record
// lines twice (kind probe, then the record). It is the reference the single-pass
// ReadJSONL is held to — whatever ReadJSONL accepts, this accepts with
// an identical result. It keeps the historical leniency of loading
// any unknown kind as a government record, which ReadJSONL rejects.
func readJSONLReference(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	if !sc.Scan() {
		return nil, fmt.Errorf("export: empty input")
	}
	// The reference also reads the pre-v3 header counts and loads v1 and
	// v2 files; ReadJSONL accepts only v3, a subset of its inputs.
	var h struct {
		Format    string  `json:"format"`
		Version   int     `json:"version"`
		Seed      int64   `json:"seed"`
		Scale     float64 `json:"scale"`
		Records   int     `json:"records"`
		Topsite   int     `json:"topsites"`
		Countries int     `json:"countries"`
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("export: header: %w", err)
	}
	if h.Format != "govhost-dataset" || h.Version < 1 || h.Version > FormatVersion {
		return nil, fmt.Errorf("export: bad header %+v", h)
	}
	ds := &dataset.Dataset{
		Seed: h.Seed, Scale: h.Scale,
		PerCountry: map[string]*dataset.CountryStats{},
	}
	var tr *trailer
	for sc.Scan() {
		line := sc.Bytes()
		if tr != nil {
			return nil, fmt.Errorf("export: content after trailer")
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("export: record: %w", err)
		}
		switch probe.Kind {
		case "country":
			st := new(dataset.CountryStats)
			if err := json.Unmarshal(line, st); err != nil {
				return nil, fmt.Errorf("export: country stats: %w", err)
			}
			if len(st.Failures) == 0 {
				st.Failures = nil
			}
			ds.PerCountry[st.Country] = st
		case "trailer":
			var t trailer
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, fmt.Errorf("export: trailer: %w", err)
			}
			tr = &t
		default:
			rec, err := referenceRecord(line)
			if err != nil {
				return nil, err
			}
			if probe.Kind == "topsite" {
				ds.Topsites = append(ds.Topsites, rec)
			} else {
				ds.Records = append(ds.Records, rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	wantRecords, wantTopsites, wantCountries := h.Records, h.Topsite, h.Countries
	if h.Version >= 3 {
		if tr == nil {
			return nil, fmt.Errorf("export: truncated dataset: no trailer")
		}
		wantRecords, wantTopsites, wantCountries = tr.Records, tr.Topsite, tr.Countries
	}
	if len(ds.Records) != wantRecords || len(ds.Topsites) != wantTopsites ||
		h.Version >= 2 && len(ds.PerCountry) != wantCountries {
		return nil, fmt.Errorf("export: truncated dataset")
	}
	return ds, nil
}

// referenceRecord decodes one record line into the tagged
// dataset.URLRecord. A missing or empty IP decodes as the zero address
// and, like an unparseable one, rejects the line.
func referenceRecord(line []byte) (dataset.URLRecord, error) {
	var rec dataset.URLRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return dataset.URLRecord{}, fmt.Errorf("export: record: %w", err)
	}
	if !rec.IP.IsValid() {
		return dataset.URLRecord{}, fmt.Errorf("export: record %q: missing IP", rec.URL)
	}
	if rec.Category < 0 || rec.Category >= world.NumCategories {
		return dataset.URLRecord{}, fmt.Errorf("export: record %q: bad category %d", rec.URL, rec.Category)
	}
	return rec, nil
}

// recordLine is a record line as encoding/json writes it: the record's
// own json fields, then the line's kind.
type recordLine struct {
	*dataset.URLRecord
	Kind string `json:"kind"`
}

// writeJSONLReference is WriteJSONL with every line, record lines
// included, encoded reflectively by encoding/json. It is the reference
// WriteJSONL's record encoder is held to byte for byte.
func writeJSONLReference(w io.Writer, ds *dataset.Dataset) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header{
		Format: "govhost-dataset", Version: FormatVersion,
		Seed: ds.Seed, Scale: ds.Scale,
	}); err != nil {
		return err
	}
	for i := range ds.Records {
		if err := enc.Encode(recordLine{&ds.Records[i], "gov"}); err != nil {
			return err
		}
	}
	for i := range ds.Topsites {
		if err := enc.Encode(recordLine{&ds.Topsites[i], "topsite"}); err != nil {
			return err
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
	return enc.Encode(trailer{
		Kind: "trailer", Records: len(ds.Records), Topsite: len(ds.Topsites), Countries: len(codes),
	})
}
