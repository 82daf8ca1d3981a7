package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func newClientFixture(t *testing.T) (*Client, *Catalog) {
	t.Helper()
	cat := New()
	srv := httptest.NewServer(NewServer(cat))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), cat
}

func TestClientAddAndSearch(t *testing.T) {
	ctx := context.Background()
	c, cat := newClientFixture(t)
	if _, err := cat.Add(sampleRecords()...); err != nil {
		t.Fatal(err)
	}
	results, err := c.Search(ctx, Query{Terms: "elevation", Source: "dataverse"})
	if err != nil || len(results) != 1 {
		t.Fatalf("Search: %d, %v", len(results), err)
	}
	if results[0].Source != "dataverse" {
		t.Errorf("result %+v", results[0])
	}
}

func TestClientStats(t *testing.T) {
	ctx := context.Background()
	c, cat := newClientFixture(t)
	if _, err := cat.Add(sampleRecords()...); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil || stats.Records != 4 {
		t.Fatalf("Stats: %+v, %v", stats, err)
	}
}

// TestClientDuplicateIDSurfaced posts a record whose ID the server's
// catalog already holds: the server must answer 409 and keep the first.
func TestClientDuplicateIDSurfaced(t *testing.T) {
	c, cat := newClientFixture(t)
	if _, err := cat.Add(Record{ID: "dup", Name: "a"}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal([]Record{{ID: "dup", Name: "b"}})
	resp, err := http.Post(c.base+"/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate-ID ingest status %s, want 409", resp.Status)
	}
	if rec, ok := cat.Get("dup"); !ok || rec.Name != "a" {
		t.Errorf("record after duplicate ingest = %+v, %v", rec, ok)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if _, err := c.Search(context.Background(), Query{Terms: "x"}); err == nil {
		t.Error("dead server search succeeded")
	}
}
