package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{Name: "tennessee_elevation_30m.tif", Source: "dataverse", Type: "tiff", Size: 1 << 20, Location: "doi:10.1/a/elev.tif", Keywords: []string{"terrain", "elevation", "tennessee"}},
		{Name: "tennessee_slope_30m.tif", Source: "dataverse", Type: "tiff", Size: 1 << 20, Location: "doi:10.1/a/slope.tif", Keywords: []string{"terrain", "slope"}},
		{Name: "conus_elevation_30m.idx", Source: "sealstorage", Type: "idx", Size: 5 << 20, Location: "seal://conus/elev", Keywords: []string{"terrain", "elevation", "conus"}},
		{Name: "soil_moisture_2016.nc", Source: "dataverse", Type: "netcdf", Size: 3 << 20, Location: "doi:10.1/b/sm.nc", Keywords: []string{"soil", "moisture", "esa", "cci"}},
	}
}

func loaded(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if n, err := c.Add(sampleRecords()...); err != nil || n != 4 {
		t.Fatalf("Add: %d, %v", n, err)
	}
	return c
}

func TestAddAssignsIDs(t *testing.T) {
	c := loaded(t)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	res := c.Search(Query{})
	seen := map[string]bool{}
	for _, r := range res {
		if r.ID == "" {
			t.Error("record without ID")
		}
		if seen[r.ID] {
			t.Errorf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Added.IsZero() {
			t.Error("record without Added time")
		}
	}
}

func TestAddRejectsDuplicatesAndEmpty(t *testing.T) {
	c := New()
	if _, err := c.Add(Record{ID: "x", Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(Record{ID: "x", Name: "b"}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := c.Add(Record{Name: ""}); err == nil {
		t.Error("nameless record accepted")
	}
}

func TestGet(t *testing.T) {
	c := New()
	c.Add(Record{ID: "r1", Name: "thing"})
	if rec, ok := c.Get("r1"); !ok || rec.Name != "thing" {
		t.Errorf("Get = %+v, %v", rec, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing ID found")
	}
}

func TestSearchSingleTerm(t *testing.T) {
	c := loaded(t)
	res := c.Search(Query{Terms: "elevation"})
	if len(res) != 2 {
		t.Fatalf("elevation matched %d records", len(res))
	}
}

func TestSearchANDSemantics(t *testing.T) {
	c := loaded(t)
	res := c.Search(Query{Terms: "elevation conus"})
	if len(res) != 1 || !strings.Contains(res[0].Name, "conus") {
		t.Fatalf("AND search: %+v", res)
	}
	if res := c.Search(Query{Terms: "elevation moisture"}); len(res) != 0 {
		t.Errorf("disjoint AND matched %d", len(res))
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	c := loaded(t)
	if res := c.Search(Query{Terms: "zzznope"}); len(res) != 0 {
		t.Errorf("unknown term matched %d", len(res))
	}
}

func TestSearchCaseInsensitiveAndTokenized(t *testing.T) {
	c := loaded(t)
	if res := c.Search(Query{Terms: "TENNESSEE"}); len(res) != 2 {
		t.Errorf("case-insensitive: %d", len(res))
	}
	// "30m" appears inside file names split on '_' and '.'.
	if res := c.Search(Query{Terms: "30m"}); len(res) != 3 {
		t.Errorf("token split: %d", len(res))
	}
}

func TestSearchFacets(t *testing.T) {
	c := loaded(t)
	if res := c.Search(Query{Source: "dataverse"}); len(res) != 3 {
		t.Errorf("source facet: %d", len(res))
	}
	if res := c.Search(Query{Type: "idx"}); len(res) != 1 {
		t.Errorf("type facet: %d", len(res))
	}
	if res := c.Search(Query{Terms: "terrain", Source: "sealstorage"}); len(res) != 1 {
		t.Errorf("terms+facet: %d", len(res))
	}
}

func TestSearchNamePrefix(t *testing.T) {
	c := loaded(t)
	if res := c.Search(Query{NamePrefix: "tennessee_"}); len(res) != 2 {
		t.Errorf("prefix: %d", len(res))
	}
}

func TestSearchLimit(t *testing.T) {
	c := loaded(t)
	if res := c.Search(Query{Limit: 2}); len(res) != 2 {
		t.Errorf("limit: %d", len(res))
	}
}

func TestStats(t *testing.T) {
	c := loaded(t)
	s := c.Stats()
	if s.Records != 4 {
		t.Errorf("Records = %d", s.Records)
	}
	if s.BySource["dataverse"] != 3 || s.BySource["sealstorage"] != 1 {
		t.Errorf("BySource = %v", s.BySource)
	}
	if s.ByType["tiff"] != 2 {
		t.Errorf("ByType = %v", s.ByType)
	}
	if s.TotalBytes != (1<<20)+(1<<20)+(5<<20)+(3<<20) {
		t.Errorf("TotalBytes = %d", s.TotalBytes)
	}
	if s.Tokens == 0 {
		t.Error("no tokens indexed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := loaded(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d records, want %d", c2.Len(), c.Len())
	}
	// Search behaviour must survive the round trip.
	if res := c2.Search(Query{Terms: "elevation conus"}); len(res) != 1 {
		t.Errorf("loaded catalog search: %d", len(res))
	}
}

// TestLoadThenAddAssignsFreshID adds a record without an ID to a
// catalog loaded from a file whose records already carry the first
// assigned IDs: Add must skip the taken ones, not fail on a duplicate.
func TestLoadThenAddAssignsFreshID(t *testing.T) {
	var buf bytes.Buffer
	if err := loaded(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(Record{Name: "new.tif"}); err != nil {
		t.Fatalf("Add after Load: %v", err)
	}
	res := c.Search(Query{NamePrefix: "new"})
	if len(res) != 1 || res[0].ID != "nsdf-000000005" {
		t.Errorf("added record = %+v, want ID nsdf-000000005", res)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTokenize(t *testing.T) {
	got := tokenize("Tennessee_Elevation-30m.TIF")
	want := []string{"tennessee", "elevation", "30m", "tif"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if toks := tokenize(""); len(toks) != 0 {
		t.Errorf("empty tokenize = %v", toks)
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1, 2, 3}, []int{2, 3, 4}, []int{2, 3}},
		{[]int{1}, []int{2}, nil},
		{nil, []int{1}, nil},
		{[]int{5, 9}, []int{5, 9}, []int{5, 9}},
	}
	for _, c := range cases {
		got := intersectSorted(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("intersect(%v,%v) = %v", c.a, c.b, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("intersect(%v,%v) = %v", c.a, c.b, got)
			}
		}
	}
}

func TestEverySearchResultContainsAllTermsProperty(t *testing.T) {
	c := New()
	// Synthesise a corpus with overlapping keyword sets.
	words := []string{"terrain", "soil", "moisture", "conus", "tennessee", "idx", "tiff"}
	for i := 0; i < 200; i++ {
		var kws []string
		for j, w := range words {
			if (i>>j)&1 == 1 {
				kws = append(kws, w)
			}
		}
		c.Add(Record{Name: fmt.Sprintf("obj%03d", i), Source: "synthetic", Type: "bin", Keywords: kws})
	}
	f := func(mask uint8) bool {
		var terms []string
		for j := 0; j < 3; j++ {
			if (mask>>j)&1 == 1 {
				terms = append(terms, words[j])
			}
		}
		if len(terms) == 0 {
			return true
		}
		res := c.Search(Query{Terms: strings.Join(terms, " "), Limit: 1000})
		for _, r := range res {
			have := map[string]bool{}
			for _, tok := range recordTokens(&r) {
				have[tok] = true
			}
			for _, term := range terms {
				if !have[term] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAddSearch(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(Record{Name: fmt.Sprintf("w%d-obj%d terrain", w, i), Source: "s", Type: "t"})
				c.Search(Query{Terms: "terrain"})
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 400 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestHTTPAPI(t *testing.T) {
	srv := httptest.NewServer(NewServer(New()))
	defer srv.Close()

	// Ingest.
	body, _ := json.Marshal(sampleRecords())
	resp, err := http.Post(srv.URL+"/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status %s", resp.Status)
	}
	var addResult map[string]int
	json.NewDecoder(resp.Body).Decode(&addResult)
	resp.Body.Close()
	if addResult["added"] != 4 {
		t.Fatalf("added = %d", addResult["added"])
	}

	// Search.
	resp, err = http.Get(srv.URL + "/search?q=elevation&source=dataverse")
	if err != nil {
		t.Fatal(err)
	}
	var results []Record
	json.NewDecoder(resp.Body).Decode(&results)
	resp.Body.Close()
	if len(results) != 1 {
		t.Fatalf("search returned %d", len(results))
	}

	// Get by ID.
	resp, err = http.Get(srv.URL + "/records/" + results[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %s", resp.Status)
	}
	resp.Body.Close()

	// Stats.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Records != 4 {
		t.Fatalf("stats records = %d", stats.Records)
	}

	// Bad requests.
	resp, _ = http.Post(srv.URL+"/records", "application/json", strings.NewReader("nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage ingest status %s", resp.Status)
	}
	resp.Body.Close()
	dup, _ := json.Marshal([]Record{{ID: results[0].ID, Name: "again"}})
	resp, _ = http.Post(srv.URL+"/records", "application/json", bytes.NewReader(dup))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate-ID ingest status %s", resp.Status)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/search?limit=-2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status %s", resp.Status)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/records/unknown-id")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown record status %s", resp.Status)
	}
	resp.Body.Close()
}

func BenchmarkIngest(b *testing.B) {
	c := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(Record{
			Name:     fmt.Sprintf("object_%d_30m.tif", i),
			Source:   "dataverse",
			Type:     "tiff",
			Size:     1 << 20,
			Keywords: []string{"terrain", "elevation"},
		})
	}
}

func BenchmarkSearchLargeCatalog(b *testing.B) {
	c := New()
	sources := []string{"dataverse", "sealstorage", "materialscommons"}
	for i := 0; i < 100000; i++ {
		c.Add(Record{
			Name:     fmt.Sprintf("object_%06d.tif", i),
			Source:   sources[i%3],
			Type:     "tiff",
			Keywords: []string{"terrain", fmt.Sprintf("region%d", i%50)},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Search(Query{Terms: fmt.Sprintf("terrain region%d", i%50), Limit: 20})
	}
}

// Save writes the catalog as JSON lines, one record per line.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.records {
		if err := enc.Encode(&c.records[i]); err != nil {
			return fmt.Errorf("catalog: save record %d: %w", i, err)
		}
	}
	return bw.Flush()
}
