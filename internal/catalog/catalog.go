// Package catalog reimplements the NSDF-Catalog service (Luettgau et al.,
// UCC 2022): a lightweight indexing service that registers descriptive
// records for scientific data objects scattered across repositories and
// lets users discover them with term queries. The production deployment
// indexes over 1.59 billion records; this implementation provides the
// same record model, bulk ingest, inverted-index term search, prefix
// search, facet filters, loading from JSON lines, and an HTTP API, at
// laptop scale.
package catalog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record describes one catalogued data object.
type Record struct {
	// ID is the unique record identifier (assigned on ingest when empty).
	ID string `json:"id"`
	// Name is the object's human-readable name, e.g. a file name.
	Name string `json:"name"`
	// Source names the hosting repository ("dataverse", "sealstorage",
	// "materialscommons", ...).
	Source string `json:"source"`
	// Type is the object's data type ("tiff", "idx", "netcdf", ...).
	Type string `json:"type"`
	// Size is the payload size in bytes.
	Size int64 `json:"size"`
	// Checksum is a content hash for integrity checks.
	Checksum string `json:"checksum,omitempty"`
	// Location is where the object can be fetched (URL or store key).
	Location string `json:"location"`
	// Keywords carry free-text discovery terms.
	Keywords []string `json:"keywords,omitempty"`
	// Added is the ingest time.
	Added time.Time `json:"added"`
}

// Catalog is an in-memory record index. It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	records []Record
	byID    map[string]int
	// inverted maps a token to the sorted indices of records containing it.
	inverted map[string][]int
	// bySource and byType are facet counters.
	bySource map[string]int
	byType   map[string]int
	nextID   int
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		byID:     make(map[string]int),
		inverted: make(map[string][]int),
		bySource: make(map[string]int),
		byType:   make(map[string]int),
	}
}

// tokenize lowercases and splits text on non-alphanumeric boundaries.
func tokenize(text string) []string {
	var out []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	for _, c := range strings.ToLower(text) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			sb.WriteRune(c)
		default:
			flush()
		}
	}
	flush()
	return out
}

// recordTokens returns the searchable tokens of a record.
func recordTokens(r *Record) []string {
	fields := []string{r.Name, r.Source, r.Type}
	fields = append(fields, r.Keywords...)
	seen := map[string]bool{}
	var out []string
	for _, f := range fields {
		for _, tok := range tokenize(f) {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	return out
}

// Add ingests records, assigning IDs where absent, and returns the number
// added. Records whose ID already exists are rejected with an error after
// any earlier records in the batch were ingested.
func (c *Catalog) Add(records ...Record) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, r := range records {
		if r.Name == "" {
			return added, fmt.Errorf("catalog: record needs a name")
		}
		// An assigned ID skips those already taken, such as the ones a
		// loaded catalog file carries.
		for r.ID == "" {
			c.nextID++
			id := fmt.Sprintf("nsdf-%09d", c.nextID)
			if _, taken := c.byID[id]; !taken {
				r.ID = id
			}
		}
		if _, dup := c.byID[r.ID]; dup {
			return added, fmt.Errorf("catalog: duplicate record id %q", r.ID)
		}
		if r.Added.IsZero() {
			r.Added = time.Now()
		}
		idx := len(c.records)
		c.records = append(c.records, r)
		c.byID[r.ID] = idx
		for _, tok := range recordTokens(&r) {
			c.inverted[tok] = append(c.inverted[tok], idx)
		}
		c.bySource[strings.ToLower(r.Source)]++
		c.byType[strings.ToLower(r.Type)]++
		added++
	}
	return added, nil
}

// Get returns the record with the given ID.
func (c *Catalog) Get(id string) (Record, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, ok := c.byID[id]
	if !ok {
		return Record{}, false
	}
	return c.records[idx], true
}

// Len returns the number of records.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.records)
}

// Query is a catalog search request.
type Query struct {
	// Terms are ANDed full-text terms (tokenized like record fields).
	Terms string
	// Source, when non-empty, restricts to one repository.
	Source string
	// Type, when non-empty, restricts to one data type.
	Type string
	// NamePrefix, when non-empty, restricts to names with the prefix
	// (case-insensitive).
	NamePrefix string
	// Limit bounds the result count; 0 means 100.
	Limit int
}

// Search evaluates a query. Results are sorted by record ID.
func (c *Catalog) Search(q Query) []Record {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	terms := tokenize(q.Terms)
	var candidates []int
	if len(terms) > 0 {
		// Intersect posting lists, shortest first.
		lists := make([][]int, 0, len(terms))
		for _, term := range terms {
			list, ok := c.inverted[term]
			if !ok {
				return nil
			}
			lists = append(lists, list)
		}
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		candidates = lists[0]
		for _, list := range lists[1:] {
			candidates = intersectSorted(candidates, list)
			if len(candidates) == 0 {
				return nil
			}
		}
	} else {
		candidates = make([]int, len(c.records))
		for i := range candidates {
			candidates[i] = i
		}
	}

	prefix := strings.ToLower(q.NamePrefix)
	source := strings.ToLower(q.Source)
	typ := strings.ToLower(q.Type)
	var out []Record
	for _, idx := range candidates {
		r := &c.records[idx]
		if source != "" && strings.ToLower(r.Source) != source {
			continue
		}
		if typ != "" && strings.ToLower(r.Type) != typ {
			continue
		}
		if prefix != "" && !strings.HasPrefix(strings.ToLower(r.Name), prefix) {
			continue
		}
		out = append(out, *r)
		if len(out) >= limit {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// intersectSorted intersects two ascending int slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Stats summarises the catalog for the service's landing page.
type Stats struct {
	// Records is the total record count.
	Records int `json:"records"`
	// Tokens is the inverted-index vocabulary size.
	Tokens int `json:"tokens"`
	// TotalBytes sums the catalogued object sizes.
	TotalBytes int64 `json:"total_bytes"`
	// BySource and ByType are facet counts.
	BySource map[string]int `json:"by_source"`
	ByType   map[string]int `json:"by_type"`
}

// Stats computes the summary.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{
		Records:  len(c.records),
		Tokens:   len(c.inverted),
		BySource: make(map[string]int, len(c.bySource)),
		ByType:   make(map[string]int, len(c.byType)),
	}
	for k, v := range c.bySource {
		s.BySource[k] = v
	}
	for k, v := range c.byType {
		s.ByType[k] = v
	}
	for i := range c.records {
		s.TotalBytes += c.records[i].Size
	}
	return s
}

// Load reads JSON-lines records, one Record per line, into a fresh
// catalog.
func Load(r io.Reader) (*Catalog, error) {
	c := New()
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("catalog: load: %w", err)
		}
		if _, err := c.Add(rec); err != nil {
			return nil, err
		}
	}
	return c, nil
}
