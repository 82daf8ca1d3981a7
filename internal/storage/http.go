package storage

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

// Server exposes a Store over HTTP with an S3-flavoured REST layout:
//
//	PUT    /obj/<key>            store an object
//	GET    /obj/<key>            fetch an object
//	HEAD   /obj/<key>            object metadata (ETag, Content-Length)
//	DELETE /obj/<key>            remove an object
//	GET    /list?prefix=<p>      JSON array of ObjectInfo
//	GET    /healthz              liveness probe
//
// When AuthToken is non-empty the server requires
// "Authorization: Bearer <token>" on every request — this is the private
// Seal-Storage-style deployment of the tutorial; with an empty token the
// service is public, like Dataverse's anonymous download path.
type Server struct {
	store Store
	// AuthToken, when non-empty, gates every request.
	AuthToken string
}

// NewServer wraps a Store for HTTP serving. token may be empty for a
// public service.
func NewServer(store Store, token string) *Server {
	return &Server{store: store, AuthToken: token}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.AuthToken != "" {
		got := r.Header.Get("Authorization")
		if subtle.ConstantTimeCompare([]byte(got), []byte("Bearer "+s.AuthToken)) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
	}
	switch {
	case r.URL.Path == "/healthz":
		telemetry.WriteHealth(w, "store")
	case r.URL.Path == "/list":
		s.handleList(w, r)
	case strings.HasPrefix(r.URL.Path, "/obj/"):
		s.handleObject(w, r, strings.TrimPrefix(r.URL.Path, "/obj/"))
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	infos, err := s.store.List(r.Context(), r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(infos); err != nil {
		// Too late for a status change; the client sees a truncated body.
		return
	}
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request, key string) {
	if !ValidKey(key) {
		http.Error(w, "invalid key", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	switch r.Method {
	case http.MethodPut:
		data, err := readBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.store.Put(ctx, key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		data, err := s.store.Get(ctx, key)
		if errors.Is(err, ErrNotExist) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("ETag", `"`+etag(data)+`"`)
		// A declared length keeps the body out of chunked encoding, so
		// the client can read it into one buffer of exactly this size.
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		if _, err := w.Write(data); err != nil {
			// The status line is sent; the client sees a short body.
			return
		}
	case http.MethodHead:
		info, err := s.store.Stat(ctx, key)
		if errors.Is(err, ErrNotExist) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("ETag", `"`+info.ETag+`"`)
		w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		if err := s.store.Delete(ctx, key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// maxBodyPrealloc bounds what readBody allocates on the word of a
// Content-Length header, which on a PUT is whatever the sender wrote.
const maxBodyPrealloc = 8 << 20

// readBody reads an HTTP body whose declared length is n (-1 when the
// sender declared none) into one buffer of exactly that size instead of
// growing one until EOF. A body shorter or longer than declared is an
// error. Past maxBodyPrealloc the rest is believed only as it arrives.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, min(n, maxBodyPrealloc))
	if got, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("body ended after %d of the %d bytes declared: %w", got, n, err)
	}
	rest, err := io.ReadAll(io.LimitReader(r, n-int64(len(buf))+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)+len(rest)) != n {
		return nil, fmt.Errorf("body does not match the %d bytes declared", n)
	}
	return append(buf, rest...), nil
}

// Client is a Store implementation backed by a remote Server.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient connects to a Server at baseURL (e.g. "http://host:port").
// token must match the server's AuthToken; pass "" for public services.
func NewClient(baseURL, token string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		token: token,
		http:  &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("storage: build request: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	// Propagate the active trace across the peer hop — every request,
	// including replication writes and hedged duplicates, so one user
	// request keeps one trace ID across the whole fleet and the remote
	// server can graft its spans under the calling span.
	trace.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("storage: %s %s: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusUnauthorized {
		err := fmt.Errorf("%w: %s %s", ErrUnauthorized, method, path)
		if cerr := resp.Body.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return resp, nil
}

// Put implements Store.
func (c *Client) Put(ctx context.Context, key string, data []byte) error {
	resp, err := c.do(ctx, http.MethodPut, "/obj/"+key, data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("storage: put %q: status %s", key, resp.Status)
	}
	return nil
}

// Get implements Store.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/obj/"+key, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("storage: get %q: status %s", key, resp.Status)
	}
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("storage: get %q: %w", key, err)
	}
	return data, nil
}

// Delete implements Store.
func (c *Client) Delete(ctx context.Context, key string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/obj/"+key, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("storage: delete %q: status %s", key, resp.Status)
	}
	return nil
}

// Stat implements Store.
func (c *Client) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	resp, err := c.do(ctx, http.MethodHead, "/obj/"+key, nil)
	if err != nil {
		return ObjectInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if resp.StatusCode != http.StatusOK {
		return ObjectInfo{}, fmt.Errorf("storage: stat %q: status %s", key, resp.Status)
	}
	return ObjectInfo{
		Key:  key,
		Size: resp.ContentLength,
		ETag: strings.Trim(resp.Header.Get("ETag"), `"`),
	}, nil
}

// List implements Store.
func (c *Client) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	resp, err := c.do(ctx, http.MethodGet, "/list?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("storage: list %q: status %s", prefix, resp.Status)
	}
	var infos []ObjectInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("storage: list decode: %w", err)
	}
	return infos, nil
}
