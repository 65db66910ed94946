package serve

import (
	"encoding/json"
	"net/url"
	"sort"

	"repro/internal/analysis"
	"repro/internal/probing"
	"repro/internal/world"
)

// Envelope is the wrapper every successful response carries. Field
// order is fixed by the struct, map-valued data marshals with sorted
// keys, and floats render canonically, so a response body is a pure
// function of (dataset version, endpoint, params) — which is what
// makes byte-level verification and caching sound.
type Envelope struct {
	Version  string            `json:"version"`
	Endpoint string            `json:"endpoint"`
	Params   map[string]string `json:"params,omitempty"`
	Data     any               `json:"data"`
}

// apiError is a typed endpoint failure; Status is the HTTP status the
// daemon maps it to.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Field   string `json:"field,omitempty"`
	Stored  string `json:"stored,omitempty"`
	Want    string `json:"want,omitempty"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

// errorEnvelope is the error-side counterpart of Envelope.
type errorEnvelope struct {
	Version  string    `json:"version"`
	Endpoint string    `json:"endpoint,omitempty"`
	Error    *apiError `json:"error"`
}

func marshalEnvelope(version, name string, params map[string]string, data any) ([]byte, int) {
	body, err := json.Marshal(Envelope{Version: version, Endpoint: name, Params: params, Data: data})
	if err != nil {
		return marshalError(version, name, &apiError{
			Status: 500, Code: "encode-failed", Message: err.Error(),
		})
	}
	return append(body, '\n'), 200
}

func marshalError(version, name string, aerr *apiError) ([]byte, int) {
	body, err := json.Marshal(errorEnvelope{Version: version, Endpoint: name, Error: aerr})
	if err != nil {
		// An apiError is plain strings and ints; it cannot fail to
		// encode, but never answer nothing.
		return []byte(`{"error":{"code":"encode-failed"}}` + "\n"), 500
	}
	return append(body, '\n'), aerr.Status
}

// param declares one recognized query parameter of an endpoint.
type param struct {
	key      string
	required bool
	allowed  []string // nil = validated by the renderer
	def      string   // substituted when the key is absent
}

// endpoint couples a name to its parameter schema and renderer. The
// renderer is a pure function of (snapshot, canonical params).
type endpoint struct {
	name   string
	params []param
	render func(s *Snapshot, p map[string]string) (any, error)
}

// canonicalParams validates raw query values against the endpoint's
// schema and returns the canonical parameter map that identifies the
// response: defaults applied, unknown keys rejected, enum values
// checked. Rejections come back as 400-class apiErrors naming the
// offending key. A nameless pair (the "=x" of "?=x") has no key to
// name and cannot select anything, so it is ignored.
func canonicalParams(ep *endpoint, query url.Values) (map[string]string, *apiError) {
	var out map[string]string
	for key := range query {
		if key == "" {
			continue
		}
		known := false
		for i := range ep.params {
			if ep.params[i].key == key {
				known = true
				break
			}
		}
		if !known {
			return nil, &apiError{Status: 400, Code: "unknown-param", Field: key,
				Message: "unknown parameter: " + key}
		}
	}
	for i := range ep.params {
		p := &ep.params[i]
		v := query.Get(p.key)
		if v == "" {
			if p.required {
				return nil, &apiError{Status: 400, Code: "missing-param", Field: p.key,
					Message: "required parameter missing: " + p.key}
			}
			if p.def == "" {
				continue
			}
			v = p.def
		}
		if p.allowed != nil {
			ok := false
			for _, a := range p.allowed {
				if v == a {
					ok = true
					break
				}
			}
			if !ok {
				return nil, &apiError{Status: 400, Code: "bad-param", Field: p.key,
					Message: "invalid value for " + p.key + ": " + v}
			}
		}
		if out == nil {
			out = map[string]string{}
		}
		out[p.key] = v
	}
	return out, nil
}

// Wire types: stable JSON shapes for the analysis results. Category
// mixes become maps keyed by category name so the API does not leak
// the internal category ordering.

type sharesWire struct {
	URLs   map[string]float64 `json:"urls"`
	Bytes  map[string]float64 `json:"bytes"`
	NURLs  int                `json:"n_urls"`
	NBytes int64              `json:"n_bytes"`
}

func mixWire(m world.Mix) map[string]float64 {
	out := make(map[string]float64, len(world.Categories))
	for _, c := range world.Categories {
		out[c.String()] = m[c]
	}
	return out
}

func sharesWireOf(s analysis.Shares) sharesWire {
	return sharesWire{URLs: mixWire(s.URLs), Bytes: mixWire(s.Bytes), NURLs: s.NURL, NBytes: s.NByte}
}

type splitWire struct {
	RegDomestic float64 `json:"reg_domestic"`
	GeoDomestic float64 `json:"geo_domestic"`
	NReg        int     `json:"n_reg"`
	NGeo        int     `json:"n_geo"`
}

func splitWireOf(s analysis.SplitShares) splitWire {
	return splitWire{RegDomestic: s.RegDomestic, GeoDomestic: s.GeoDomestic, NReg: s.NReg, NGeo: s.NGeo}
}

type majorityWire struct {
	Country    string  `json:"country"`
	ThirdParty bool    `json:"third_party"`
	GovShare   float64 `json:"gov_share"`
}

type flowWire struct {
	Src   string  `json:"src"`
	Dst   string  `json:"dst"`
	URLs  int     `json:"urls"`
	Share float64 `json:"share"`
}

type footprintWire struct {
	ASN       int    `json:"asn"`
	Org       string `json:"org"`
	Countries int    `json:"countries"`
}

type divWire struct {
	Country     string  `json:"country"`
	HHIURLs     float64 `json:"hhi_urls"`
	HHIBytes    float64 `json:"hhi_bytes"`
	Dominant    string  `json:"dominant"`
	TopNetShare float64 `json:"top_net_share"`
}

type comparisonWire struct {
	Gov      sharesWire `json:"gov"`
	Topsites sharesWire `json:"topsites"`
	GovSplit splitWire  `json:"gov_split"`
	TopSplit splitWire  `json:"top_split"`
}

type table4Wire struct {
	UnicastAP int `json:"unicast_ap"`
	UnicastMG int `json:"unicast_mg"`
	UnicastUR int `json:"unicast_ur"`
	UnicastEX int `json:"unicast_ex"`
	AnycastAP int `json:"anycast_ap"`
	AnycastUR int `json:"anycast_ur"`
	Unicast   int `json:"unicast"`
	Anycast   int `json:"anycast"`
}

func table4WireOf(st probing.Stats) table4Wire {
	return table4Wire{
		UnicastAP: st.UnicastAP, UnicastMG: st.UnicastMG,
		UnicastUR: st.UnicastUR, UnicastEX: st.UnicastEX,
		AnycastAP: st.AnycastAP, AnycastUR: st.AnycastUR,
		Unicast: st.UnicastAP + st.UnicastMG + st.UnicastUR + st.UnicastEX,
		Anycast: st.AnycastAP + st.AnycastUR,
	}
}

type gdprWire struct {
	Compliant int     `json:"compliant"`
	Total     int     `json:"total"`
	Share     float64 `json:"share"`
}

type countryCoverageWire struct {
	Region        string         `json:"region"`
	LandingURLs   int            `json:"landing_urls"`
	InternalURLs  int            `json:"internal_urls"`
	Hostnames     int            `json:"hostnames"`
	Attempted     int            `json:"attempted"`
	FailedURLs    int            `json:"failed_urls"`
	Retries       int            `json:"retries"`
	Failures      map[string]int `json:"failures,omitempty"`
	Failed        bool           `json:"failed,omitempty"`
	FailureReason string         `json:"failure_reason,omitempty"`
}

type coverageWire struct {
	Countries       map[string]countryCoverageWire `json:"countries"`
	TotalAttempted  int                            `json:"total_attempted"`
	TotalFailedURLs int                            `json:"total_failed_urls"`
	TotalRetries    int                            `json:"total_retries"`
	FailuresByKind  map[string]int                 `json:"failures_by_kind,omitempty"`
	FailedCountries []string                       `json:"failed_countries,omitempty"`
}

type statsWire struct {
	Records         int     `json:"records"`
	Topsites        int     `json:"topsites"`
	Countries       int     `json:"countries"`
	TotalLanding    int     `json:"total_landing"`
	TotalInternal   int     `json:"total_internal"`
	TotalUniqueURLs int     `json:"total_unique_urls"`
	TotalHostnames  int     `json:"total_hostnames"`
	ASes            int     `json:"ases"`
	GovASes         int     `json:"gov_ases"`
	UniqueIPs       int     `json:"unique_ips"`
	AnycastIPs      int     `json:"anycast_ips"`
	ServerCountries int     `json:"server_countries"`
	Scale           float64 `json:"scale"`
	Seed            int64   `json:"seed"`
}

type countryWire struct {
	Code    string     `json:"code"`
	Region  string     `json:"region"`
	Shares  sharesWire `json:"shares"`
	Records int        `json:"records"`
}

// kindParam parses the fig9/matrix kind parameter (already validated
// against the enum by canonicalParams).
func kindParam(p map[string]string) analysis.FlowKind {
	if p["kind"] == "location" {
		return analysis.FlowLocation
	}
	return analysis.FlowRegistration
}

var kindSpec = []param{{key: "kind", allowed: []string{"registration", "location"}, def: "registration"}}

// endpoints is the full API surface, one entry per index-backed
// figure or table, in route-registration order.
var endpoints = []endpoint{
	{name: "fig1", render: func(s *Snapshot, _ map[string]string) (any, error) {
		entries := s.ix.MajorityMap()
		out := make([]majorityWire, 0, len(entries))
		for _, e := range entries {
			out = append(out, majorityWire{Country: e.Country, ThirdParty: e.ThirdPty, GovShare: e.GovShare})
		}
		return out, nil
	}},
	{name: "fig2", render: func(s *Snapshot, _ map[string]string) (any, error) {
		return sharesWireOf(s.ix.GlobalShares()), nil
	}},
	{name: "fig4", render: func(s *Snapshot, _ map[string]string) (any, error) {
		regional := s.ix.RegionalShares()
		out := make(map[string]sharesWire, len(regional))
		for reg, sh := range regional {
			out[string(reg)] = sharesWireOf(sh)
		}
		return out, nil
	}},
	{name: "fig5", render: func(s *Snapshot, _ map[string]string) (any, error) {
		byCountry := s.ix.CountryShares()
		out := make(map[string]sharesWire, len(byCountry))
		for c, sh := range byCountry {
			out[c] = sharesWireOf(sh)
		}
		return out, nil
	}},
	{name: "fig6", render: func(s *Snapshot, _ map[string]string) (any, error) {
		return splitWireOf(s.ix.DomesticIntl()), nil
	}},
	{name: "fig8", render: func(s *Snapshot, _ map[string]string) (any, error) {
		regional := s.ix.RegionalDomesticIntl()
		out := make(map[string]splitWire, len(regional))
		for reg, sp := range regional {
			out[string(reg)] = splitWireOf(sp)
		}
		return out, nil
	}},
	{name: "fig9", params: kindSpec, render: func(s *Snapshot, p map[string]string) (any, error) {
		flows := s.ix.CrossBorderFlows(kindParam(p))
		out := make([]flowWire, 0, len(flows))
		for _, f := range flows {
			out = append(out, flowWire{Src: f.Src, Dst: f.Dst, URLs: f.URLs, Share: f.Share})
		}
		return out, nil
	}},
	{name: "fig10", render: func(s *Snapshot, _ map[string]string) (any, error) {
		fps := s.ix.GlobalProviderFootprints()
		out := make([]footprintWire, 0, len(fps))
		for _, f := range fps {
			out = append(out, footprintWire{ASN: f.ASN, Org: f.Org, Countries: f.Countries})
		}
		return out, nil
	}},
	{name: "fig11", render: func(s *Snapshot, _ map[string]string) (any, error) {
		divs := s.ix.Diversify()
		out := make([]divWire, 0, len(divs))
		for _, d := range divs {
			out = append(out, divWire{Country: d.Country, HHIURLs: d.HHIURLs,
				HHIBytes: d.HHIBytes, Dominant: d.DominantCat.String(), TopNetShare: d.TopNetShare})
		}
		return out, nil
	}},
	{name: "matrix", params: kindSpec, render: func(s *Snapshot, p map[string]string) (any, error) {
		matrix := s.ix.RegionFlowMatrix(s.w, kindParam(p))
		out := make(map[string]map[string]int, len(matrix))
		for src, row := range matrix {
			wireRow := make(map[string]int, len(row))
			for dst, n := range row {
				wireRow[string(dst)] = n
			}
			out[string(src)] = wireRow
		}
		return out, nil
	}},
	{name: "affinity", render: func(s *Snapshot, _ map[string]string) (any, error) {
		aff := s.ix.RegionalAffinity(s.w)
		out := make(map[string]map[string]float64, len(aff))
		for reg, row := range aff {
			out[string(reg)] = row
		}
		return out, nil
	}},
	{name: "nawe", render: func(s *Snapshot, _ map[string]string) (any, error) {
		return map[string]float64{"share": s.ix.AbroadInNAWE()}, nil
	}},
	{name: "gdpr", render: func(s *Snapshot, _ map[string]string) (any, error) {
		compliant, total := s.ix.GDPRCompliance(s.w)
		out := gdprWire{Compliant: compliant, Total: total}
		if total > 0 {
			out.Share = float64(compliant) / float64(total)
		}
		return out, nil
	}},
	{name: "table4", render: func(s *Snapshot, _ map[string]string) (any, error) {
		return table4WireOf(analysis.GeoValidation(s.ds)), nil
	}},
	{name: "table5", render: func(s *Snapshot, _ map[string]string) (any, error) {
		shares := s.ix.InRegionShare(s.w)
		out := make(map[string]float64, len(shares))
		for reg, v := range shares {
			out[string(reg)] = v
		}
		return out, nil
	}},
	{name: "topsites", render: func(s *Snapshot, _ map[string]string) (any, error) {
		cmp := s.ix.CompareTopsites()
		return comparisonWire{
			Gov: sharesWireOf(cmp.Gov), Topsites: sharesWireOf(cmp.Topsites),
			GovSplit: splitWireOf(cmp.GovSplit), TopSplit: splitWireOf(cmp.TopSplit),
		}, nil
	}},
	{name: "coverage", render: func(s *Snapshot, _ map[string]string) (any, error) {
		out := coverageWire{
			Countries:       make(map[string]countryCoverageWire, len(s.ds.PerCountry)),
			TotalAttempted:  s.ds.TotalAttempted,
			TotalFailedURLs: s.ds.TotalFailedURLs,
			TotalRetries:    s.ds.TotalRetries,
			FailuresByKind:  s.ds.FailuresByKind,
			FailedCountries: s.ds.FailedCountries,
		}
		for code, st := range s.ds.PerCountry {
			out.Countries[code] = countryCoverageWire{
				Region: string(st.Region), LandingURLs: st.LandingURLs,
				InternalURLs: st.InternalURLs, Hostnames: st.Hostnames,
				Attempted: st.Attempted, FailedURLs: st.FailedURLs,
				Retries: st.Retries, Failures: st.Failures,
				Failed: st.Failed, FailureReason: st.FailureReason,
			}
		}
		return out, nil
	}},
	{name: "stats", render: func(s *Snapshot, _ map[string]string) (any, error) {
		ds := s.ds
		return statsWire{
			Records: len(ds.Records), Topsites: len(ds.Topsites),
			Countries: len(s.Countries()), TotalLanding: ds.TotalLanding,
			TotalInternal: ds.TotalInternal, TotalUniqueURLs: ds.TotalUniqueURLs,
			TotalHostnames: ds.TotalHostnames, ASes: ds.ASes, GovASes: ds.GovASes,
			UniqueIPs: ds.UniqueIPs, AnycastIPs: ds.AnycastIPs,
			ServerCountries: ds.ServerCountries, Scale: ds.Scale, Seed: ds.Seed,
		}, nil
	}},
	{name: "country", params: []param{{key: "code", required: true}}, render: func(s *Snapshot, p map[string]string) (any, error) {
		code := p["code"]
		sh, ok := s.ix.CountryShares()[code]
		if !ok {
			return nil, &apiError{Status: 404, Code: "unknown-country", Field: "code",
				Message: "no records for country: " + code}
		}
		region := ""
		if st := s.ds.PerCountry[code]; st != nil {
			region = string(st.Region)
		}
		return countryWire{Code: code, Region: region, Shares: sharesWireOf(sh), Records: sh.NURL}, nil
	}},
}

// endpointIndex resolves an endpoint by name.
var endpointIndex = func() map[string]*endpoint {
	ix := make(map[string]*endpoint, len(endpoints))
	for i := range endpoints {
		ix[endpoints[i].name] = &endpoints[i]
	}
	return ix
}()

// EndpointNames lists every API endpoint, sorted.
func EndpointNames() []string {
	names := make([]string, 0, len(endpoints))
	for i := range endpoints {
		names = append(names, endpoints[i].name)
	}
	sort.Strings(names)
	return names
}
