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
//	HEAD   /obj/<key>            object size (Content-Length)
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
		_, err := putBody(ctx, s.store, key, r.Body, r.ContentLength)
		switch {
		case errors.Is(err, errBody):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusCreated)
		}
	case http.MethodGet:
		body, n, release, err := getBody(ctx, s.store, key)
		if errors.Is(err, ErrNotExist) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer release()
		w.Header().Set("Content-Type", "application/octet-stream")
		// A declared length keeps the body out of chunked encoding, so
		// the client can read it into one buffer of exactly this size,
		// and lets net/http send a file body by sendfile.
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		if _, err := io.Copy(w, body); err != nil {
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

// bodyStore is a Store that moves object bodies between a connection
// and its own files without holding them whole: FileStore, and
// Instrumented, which forwards to the Store it wraps. Its methods do
// what the functions getBody and putBody below do.
type bodyStore interface {
	getBody(ctx context.Context, key string) (body io.Reader, n int64, release func() error, err error)
	putBody(ctx context.Context, key string, body io.Reader, n int64) (int64, error)
}

// getBody returns the object under key as a reader of its n bytes, and
// the func that releases it once read: the store's own file where it
// can hand one over, its Get bytes otherwise. Either way Server writes
// it with one io.Copy.
func getBody(ctx context.Context, st Store, key string) (io.Reader, int64, func() error, error) {
	if bs, ok := st.(bodyStore); ok {
		return bs.getBody(ctx, key)
	}
	data, err := st.Get(ctx, key)
	if err != nil {
		return nil, 0, nil, err
	}
	return bytes.NewReader(data), int64(len(data)), func() error { return nil }, nil
}

// putBody stores a request body declared n bytes long (-1 when the
// sender declared none) under key and returns its length: streamed into
// the store's file where it has one, read whole by readBody otherwise.
// A body that fails to read or does not match n fails with errBody and
// stores nothing.
func putBody(ctx context.Context, st Store, key string, body io.Reader, n int64) (int64, error) {
	if bs, ok := st.(bodyStore); ok {
		return bs.putBody(ctx, key, body, n)
	}
	data, err := readBody(body, n)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), st.Put(ctx, key, data)
}

// errBody marks a body that could not be read or was not as long as its
// sender declared: the sender's fault, so the server answers 400.
var errBody = errors.New("storage: bad body")

// bodyReader reads a body declared n bytes long (-1: undeclared). A read
// error, or a body that proves shorter or longer than n, fails with
// errBody; it fails on the first read that passes n, so a sender that
// lies about the length gets at most one read past it.
type bodyReader struct {
	r       io.Reader
	n, read int64
}

func (b *bodyReader) Read(p []byte) (int, error) {
	k, err := b.r.Read(p)
	b.read += int64(k)
	switch {
	case b.n >= 0 && b.read > b.n:
		return k, fmt.Errorf("%w: longer than the %d bytes declared", errBody, b.n)
	case err == io.EOF && b.n >= 0 && b.read < b.n:
		return k, fmt.Errorf("%w: ended after %d of the %d bytes declared", errBody, b.read, b.n)
	case err != nil && err != io.EOF:
		return k, fmt.Errorf("%w: %w", errBody, err)
	}
	return k, err
}

// maxBodyPrealloc bounds what readBody allocates on the word of a
// Content-Length header, which on a PUT is whatever the sender wrote.
const maxBodyPrealloc = 8 << 20

// readBody reads an HTTP body whose declared length is n (-1 when the
// sender declared none) into one buffer of exactly that size instead of
// growing one until EOF. A body shorter or longer than declared fails
// with errBody. Past maxBodyPrealloc the rest is believed only as it
// arrives.
func readBody(r io.Reader, n int64) ([]byte, error) {
	br := &bodyReader{r: r, n: n}
	if n < 0 {
		return io.ReadAll(br)
	}
	buf := make([]byte, min(n, maxBodyPrealloc))
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, err
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
	return ObjectInfo{Key: key, Size: resp.ContentLength}, nil
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
