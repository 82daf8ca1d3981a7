package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a catalog Server over HTTP, mirroring the Catalog's
// Search and Stats so nsdf-catalog queries a local or remote catalog
// alike.
type Client struct {
	base string
	http *http.Client
}

// NewClient connects to a catalog service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
	}
}

// Search runs a remote query.
func (c *Client) Search(ctx context.Context, q Query) ([]Record, error) {
	qv := url.Values{}
	if q.Terms != "" {
		qv.Set("q", q.Terms)
	}
	if q.Source != "" {
		qv.Set("source", q.Source)
	}
	if q.Type != "" {
		qv.Set("type", q.Type)
	}
	if q.NamePrefix != "" {
		qv.Set("prefix", q.NamePrefix)
	}
	if q.Limit > 0 {
		qv.Set("limit", strconv.Itoa(q.Limit))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/search?"+qv.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("catalog: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("catalog: client: search status %s", resp.Status)
	}
	var out []Record
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("catalog: client: %w", err)
	}
	return out, nil
}

// Stats fetches the remote catalog summary.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Stats{}, fmt.Errorf("catalog: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("catalog: client: stats status %s", resp.Status)
	}
	var out Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Stats{}, fmt.Errorf("catalog: client: %w", err)
	}
	return out, nil
}
