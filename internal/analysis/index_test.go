package analysis

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/world"
)

// indexDataset is tinyDataset widened with topsites, an unresolved
// destination, and an in-region cross-border edge so every index query
// exercises a non-trivial path.
func indexDataset() *dataset.Dataset {
	ds := tinyDataset()
	top := rec("DE", world.ECA, world.CatGovtSOE, 100, 99, "US", "US")
	top.TopsiteSelf = true
	ds.Topsites = append(ds.Topsites, top)
	ds.Topsites = append(ds.Topsites, rec("DE", world.ECA, world.Cat3PGlobal, 300, 13335, "US", "US"))
	// UY → BR: an in-region (LAC) location dependency.
	ds.Records = append(ds.Records, rec("UY", world.LAC, world.Cat3PLocal, 150, 2, "BR", "BR"))
	// A record with no validated location and no registration country.
	ds.Records = append(ds.Records, rec("DE", world.ECA, world.CatGovtSOE, 50, 3, "", ""))
	return ds
}

// TestIndexEquivalence pins every Index query to the record-scanning
// function it replaces: the memoized report path must agree exactly —
// floats included — on the same dataset.
func TestIndexEquivalence(t *testing.T) {
	ds := indexDataset()
	w := world.New()
	ix := BuildIndexWorkers(ds, 1)

	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: index disagrees with scan\n got: %#v\nwant: %#v", name, got, want)
		}
	}

	check("GlobalShares", ix.GlobalShares(), GlobalShares(ds))
	check("RegionalShares", ix.RegionalShares(), RegionalShares(ds))
	check("CountryShares", ix.CountryShares(), CountryShares(ds))
	check("MajorityMap", ix.MajorityMap(), MajorityMap(ds))
	check("DomesticIntl", ix.DomesticIntl(), DomesticIntl(ds))
	check("RegionalDomesticIntl", ix.RegionalDomesticIntl(), RegionalDomesticIntl(ds))
	check("CrossBorderFlows/reg", ix.CrossBorderFlows(FlowRegistration), CrossBorderFlows(ds, FlowRegistration))
	check("CrossBorderFlows/loc", ix.CrossBorderFlows(FlowLocation), CrossBorderFlows(ds, FlowLocation))
	check("InRegionShare", ix.InRegionShare(w), InRegionShare(ds, w))
	check("RegionalAffinity", ix.RegionalAffinity(w), RegionalAffinity(ds, w))
	ic, it := ix.GDPRCompliance(w)
	sc, st := GDPRCompliance(ds, w)
	if ic != sc || it != st {
		t.Errorf("GDPRCompliance: index %d/%d, scan %d/%d", ic, it, sc, st)
	}
	check("RegionFlowMatrix/reg", ix.RegionFlowMatrix(w, FlowRegistration), RegionFlowMatrix(ds, w, FlowRegistration))
	check("RegionFlowMatrix/loc", ix.RegionFlowMatrix(w, FlowLocation), RegionFlowMatrix(ds, w, FlowLocation))
	check("AbroadInNAWE", ix.AbroadInNAWE(), AbroadInNAWE(ds, w))
	check("GlobalProviderFootprints", ix.GlobalProviderFootprints(), GlobalProviderFootprints(ds))
	check("Diversify", ix.Diversify(), Diversify(ds))
	check("CompareTopsites", ix.CompareTopsites(), CompareTopsites(ds))
}

// TestIndexQueriesAreRepeatable guards the memoization contract: query
// methods must not mutate index state, so a second call returns the
// same answer.
func TestIndexQueriesAreRepeatable(t *testing.T) {
	ds := indexDataset()
	ix := BuildIndexWorkers(ds, 1)
	first := ix.Diversify()
	ix.GlobalShares()
	ix.MajorityMap()
	ix.CompareTopsites()
	if got := ix.Diversify(); !reflect.DeepEqual(got, first) {
		t.Fatal("Diversify changed between calls on the same index")
	}
}
