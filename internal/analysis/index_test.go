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

// indexQueries is every Index query beside the record-scanning
// reference it must reproduce, one row per FlowKind where the query
// takes one.
var indexQueries = []struct {
	name string
	ix   func(*Index, *world.Model) any
	ref  func(*dataset.Dataset, *world.Model) any
}{
	{"GlobalShares",
		func(ix *Index, _ *world.Model) any { return ix.GlobalShares() },
		func(ds *dataset.Dataset, _ *world.Model) any { return globalSharesReference(ds) }},
	{"RegionalShares",
		func(ix *Index, _ *world.Model) any { return ix.RegionalShares() },
		func(ds *dataset.Dataset, _ *world.Model) any { return regionalSharesReference(ds) }},
	{"CountryShares",
		func(ix *Index, _ *world.Model) any { return ix.CountryShares() },
		func(ds *dataset.Dataset, _ *world.Model) any { return countrySharesReference(ds) }},
	{"MajorityMap",
		func(ix *Index, _ *world.Model) any { return ix.MajorityMap() },
		func(ds *dataset.Dataset, _ *world.Model) any { return majorityMapReference(ds) }},
	{"DomesticIntl",
		func(ix *Index, _ *world.Model) any { return ix.DomesticIntl() },
		func(ds *dataset.Dataset, _ *world.Model) any { return domesticIntlReference(ds) }},
	{"RegionalDomesticIntl",
		func(ix *Index, _ *world.Model) any { return ix.RegionalDomesticIntl() },
		func(ds *dataset.Dataset, _ *world.Model) any { return regionalDomesticIntlReference(ds) }},
	{"CrossBorderFlows/reg",
		func(ix *Index, _ *world.Model) any { return ix.CrossBorderFlows(FlowRegistration) },
		func(ds *dataset.Dataset, _ *world.Model) any { return crossBorderFlowsReference(ds, FlowRegistration) }},
	{"CrossBorderFlows/loc",
		func(ix *Index, _ *world.Model) any { return ix.CrossBorderFlows(FlowLocation) },
		func(ds *dataset.Dataset, _ *world.Model) any { return crossBorderFlowsReference(ds, FlowLocation) }},
	{"InRegionShare",
		func(ix *Index, w *world.Model) any { return ix.InRegionShare(w) },
		func(ds *dataset.Dataset, w *world.Model) any { return inRegionShareReference(ds, w) }},
	{"RegionalAffinity",
		func(ix *Index, w *world.Model) any { return ix.RegionalAffinity(w) },
		func(ds *dataset.Dataset, w *world.Model) any { return regionalAffinityReference(ds, w) }},
	{"GDPRCompliance",
		func(ix *Index, w *world.Model) any { c, n := ix.GDPRCompliance(w); return [2]int{c, n} },
		func(ds *dataset.Dataset, w *world.Model) any {
			c, n := gdprComplianceReference(ds, w)
			return [2]int{c, n}
		}},
	{"RegionFlowMatrix/reg",
		func(ix *Index, w *world.Model) any { return ix.RegionFlowMatrix(w, FlowRegistration) },
		func(ds *dataset.Dataset, w *world.Model) any {
			return regionFlowMatrixReference(ds, w, FlowRegistration)
		}},
	{"RegionFlowMatrix/loc",
		func(ix *Index, w *world.Model) any { return ix.RegionFlowMatrix(w, FlowLocation) },
		func(ds *dataset.Dataset, w *world.Model) any { return regionFlowMatrixReference(ds, w, FlowLocation) }},
	{"AbroadInNAWE",
		func(ix *Index, _ *world.Model) any { return ix.AbroadInNAWE() },
		func(ds *dataset.Dataset, _ *world.Model) any { return abroadInNAWEReference(ds) }},
	{"GlobalProviderFootprints",
		func(ix *Index, _ *world.Model) any { return ix.GlobalProviderFootprints() },
		func(ds *dataset.Dataset, _ *world.Model) any { return globalProviderFootprintsReference(ds) }},
	{"Diversify",
		func(ix *Index, _ *world.Model) any { return ix.Diversify() },
		func(ds *dataset.Dataset, _ *world.Model) any { return diversifyReference(ds) }},
	{"CompareTopsites",
		func(ix *Index, _ *world.Model) any { return ix.CompareTopsites() },
		func(ds *dataset.Dataset, _ *world.Model) any { return compareTopsitesReference(ds) }},
}

// checkIndexQueries builds the index at each width over indexDataset
// and degradedDataset and holds every query to its reference exactly,
// floats included.
func checkIndexQueries(t *testing.T, widths ...int) {
	t.Helper()
	w := world.New()
	for _, d := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"indexDataset", indexDataset()}, {"degradedDataset", degradedDataset()}} {
		for _, width := range widths {
			ix := BuildIndexWorkers(d.ds, width)
			for _, q := range indexQueries {
				if got, want := q.ix(ix, w), q.ref(d.ds, w); !reflect.DeepEqual(got, want) {
					t.Errorf("%s at width %d: %s: index disagrees with reference\n got: %#v\nwant: %#v", d.name, width, q.name, got, want)
				}
			}
		}
	}
}

// TestIndexEquivalence pins every Index query, built sequentially, to
// the record-scanning reference it replaced.
func TestIndexEquivalence(t *testing.T) {
	checkIndexQueries(t, 1)
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
