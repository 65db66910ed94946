package analysis

// Flow is one cross-border dependency edge: the fraction of the source
// government's URLs that depend on the destination country.
type Flow struct {
	Src, Dst string
	URLs     int
	Share    float64 // of the source country's URLs
}

// FlowKind selects which dependency the Fig. 9 diagram shows.
type FlowKind int

// The two Fig. 9 panels.
const (
	FlowRegistration FlowKind = iota // Fig. 9a: country of registration
	FlowLocation                     // Fig. 9b: server location
)
