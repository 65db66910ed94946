package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"

	"repro/internal/dataset"
	"repro/internal/world"
)

// readJSONLReference is the encoding/json reading of a JSONL export:
// every line decoded reflectively, record lines twice (kind probe,
// then the wire struct). It is the reference the single-pass
// ReadJSONL is held to — whatever ReadJSONL accepts, this accepts with
// an identical result. It keeps the historical leniency of loading
// any unknown kind as a government record, which ReadJSONL rejects.
func readJSONLReference(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	if !sc.Scan() {
		return nil, fmt.Errorf("export: empty input")
	}
	var h header
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
			var w jsonCountryStats
			if err := json.Unmarshal(line, &w); err != nil {
				return nil, fmt.Errorf("export: country stats: %w", err)
			}
			ds.PerCountry[w.Country] = statsFromWire(&w)
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

func referenceRecord(line []byte) (dataset.URLRecord, error) {
	var w jsonRecord
	if err := json.Unmarshal(line, &w); err != nil {
		return dataset.URLRecord{}, fmt.Errorf("export: record: %w", err)
	}
	ip, err := netip.ParseAddr(w.IP)
	if err != nil {
		return dataset.URLRecord{}, fmt.Errorf("export: record %q: bad IP %q", w.URL, w.IP)
	}
	if w.Category < 0 || w.Category >= int(world.NumCategories) {
		return dataset.URLRecord{}, fmt.Errorf("export: record %q: bad category %d", w.URL, w.Category)
	}
	return dataset.URLRecord{
		URL: w.URL, Host: w.Host, Country: w.Country, Region: world.Region(w.Region),
		Bytes: w.Bytes, Depth: w.Depth, Method: w.Method,
		IP: ip, ASN: w.ASN, Org: w.Org, RegCountry: w.RegCountry,
		GovAS: w.GovAS, Anycast: w.Anycast,
		ServeCountry: w.ServeCountry, GeoMethod: w.GeoMethod,
		Category: world.Category(w.Category), TopsiteSelf: w.TopsiteSelf, HTTPSValid: w.HTTPSValid,
	}, nil
}
