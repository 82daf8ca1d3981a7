package nsdfgo_test

import (
	"fmt"
	"testing"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/netmon"
	"nsdfgo/internal/storage"
)

// newBenchCatalog builds a synthetic catalog of n records spanning three
// sources and fifty region keywords.
func newBenchCatalog(n int) *catalog.Catalog {
	cat := catalog.New()
	sources := []string{"dataverse", "sealstorage", "materialscommons"}
	for i := 0; i < n; i++ {
		cat.Add(catalog.Record{
			Name:     fmt.Sprintf("object_%06d.tif", i),
			Source:   sources[i%3],
			Type:     "tiff",
			Size:     1 << 20,
			Keywords: []string{"terrain", fmt.Sprintf("region%d", i%50)},
		})
	}
	return cat
}

// benchQuery rotates through region-keyword queries.
func benchQuery(i int) catalog.Query {
	return catalog.Query{Terms: fmt.Sprintf("terrain region%d", i%50), Limit: 20}
}

// newBenchNetwork builds the 8-site testbed network.
func newBenchNetwork(b *testing.B) *netmon.Network {
	b.Helper()
	net, err := netmon.NewNetwork(netmon.Testbed(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// newCrossCountryStore is an empty store behind the testbed's
// coast-to-coast sdsc->mghpcc link.
func newCrossCountryStore(b *testing.B) *storage.Conditioned {
	b.Helper()
	link, err := newBenchNetwork(b).Profile("sdsc", "mghpcc")
	if err != nil {
		b.Fatal(err)
	}
	return storage.NewConditioned(storage.NewMemStore(), link, 1)
}
