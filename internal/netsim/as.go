package netsim

// ASKind classifies the operator behind an autonomous system.
type ASKind int

// Kinds of AS operators in the simulation.
const (
	KindGovernment ASKind = iota // network used exclusively by government institutions
	KindSOE                      // state-owned enterprise (IMF rule: >50 % federal ownership)
	KindLocal                    // commercial provider serving its home market
	KindRegional                 // commercial provider serving several countries on one continent
	KindGlobal                   // hypergiant / global provider
)

func (k ASKind) String() string {
	switch k {
	case KindGovernment:
		return "government"
	case KindSOE:
		return "soe"
	case KindLocal:
		return "local"
	case KindRegional:
		return "regional"
	case KindGlobal:
		return "global"
	}
	return "unknown"
}

// AS is an autonomous system with the registration metadata the
// measurement pipeline can observe through WHOIS and PeeringDB.
type AS struct {
	ASN        int
	Name       string // short network name, e.g. "CLOUDFLARENET"
	Org        string // registered organization
	RegCountry string // WHOIS country of registration
	Kind       ASKind // ground truth; the pipeline must infer it

	// Evidence surface for the government-network classifier (§3.4).
	Website      string // organization website (may be empty)
	ContactEmail string // WHOIS technical contact (may be empty)
	PeeringDB    bool   // whether a PeeringDB record exists
	PeeringNote  string // free-text note on the PeeringDB record

	// ProviderKey links global-provider ASes to the catalogue entry.
	ProviderKey string
}
