package world

// Region is a World Bank region as used by the paper's regional
// slicing (§4.1).
type Region string

// The seven World Bank regions.
const (
	NA   Region = "NA"   // North America
	LAC  Region = "LAC"  // Latin America and the Caribbean
	ECA  Region = "ECA"  // Europe and Central Asia
	MENA Region = "MENA" // North Africa and the Middle East
	SSA  Region = "SSA"  // Sub-Saharan Africa
	SA   Region = "SA"   // South Asia
	EAP  Region = "EAP"  // East Asia and Pacific
)

// Regions lists the seven regions in the paper's canonical order.
var Regions = []Region{NA, LAC, ECA, MENA, SSA, SA, EAP}

// Name returns the long-form region name.
func (r Region) Name() string {
	switch r {
	case NA:
		return "North America"
	case LAC:
		return "Latin America and the Caribbean"
	case ECA:
		return "Europe and Central Asia"
	case MENA:
		return "North Africa and the Middle East"
	case SSA:
		return "Sub-Saharan Africa"
	case SA:
		return "South Asia"
	case EAP:
		return "East Asia and Pacific"
	}
	return string(r)
}
