package storage

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestClientGetAllocatesTheBodyOnce pins the presized HTTP hop: the
// server declares the length, so the body is not chunked, and the client
// reads it into one buffer of that size. Client and server together
// (MemStore's copy, the read buffer, net/http's own buffers) stay under
// 2.5x the object; growing a buffer to EOF on either side cost about 7x.
func TestClientGetAllocatesTheBodyOnce(t *testing.T) {
	ctx := context.Background()
	srv := httptest.NewServer(NewServer(NewMemStore(), ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	object := bytes.Repeat([]byte("idx block "), 20<<10) // 200 KiB
	if err := c.Put(ctx, "blocks/b0", object); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/obj/blocks/b0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != int64(len(object)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("GET declared Content-Length %d, Transfer-Encoding %v for a %d-byte object",
			resp.ContentLength, resp.TransferEncoding, len(object))
	}

	const calls = 20
	get := func() {
		got, err := c.Get(ctx, "blocks/b0")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(object) {
			t.Fatalf("got %d bytes, want %d", len(got), len(object))
		}
	}
	get() // connection set-up, bufio readers and writers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perGet := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(len(object)) * 5 / 2; perGet > limit {
		t.Errorf("Get allocates %d bytes per %d-byte object end to end, want <= %d", perGet, len(object), limit)
	}
}

// chunked hides a reader's type so net/http cannot infer a length and
// sends the body with Transfer-Encoding: chunked.
type chunked struct{ io.Reader }

// TestReadBodyVerifiesDeclaredLength: a body must be exactly as long as
// its sender declared, and a declared length beyond maxBodyPrealloc is
// not allocated on the header's word.
func TestReadBodyVerifiesDeclaredLength(t *testing.T) {
	payload := []byte(strings.Repeat("x", 1000))
	for _, tc := range []struct {
		name     string
		declared int64
		ok       bool
	}{
		{"exact", 1000, true},
		{"undeclared", -1, true},
		{"short body", 1001, false},
		{"long body", 999, false},
		{"empty declared", 0, false},
		{"absurd declaration", 1 << 50, false},
	} {
		got, err := readBody(bytes.NewReader(payload), tc.declared)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if tc.ok && !bytes.Equal(got, payload) {
			t.Errorf("%s: body differs", tc.name)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readBody(bytes.NewReader(payload), 1<<50); err == nil {
		t.Error("1 PiB declared, 1000 bytes sent: no error")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxBodyPrealloc {
		t.Errorf("a lying Content-Length made readBody allocate %d bytes", got)
	}
	if got, err := readBody(bytes.NewReader(nil), 0); err != nil || len(got) != 0 {
		t.Errorf("empty body: %d bytes, %v", len(got), err)
	}
}

// TestPutBodyLengths drives the server's PUT with a declared, an
// undeclared (chunked) and a truncated body.
func TestPutBodyLengths(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore()
	srv := httptest.NewServer(NewServer(mem, ""))
	defer srv.Close()
	payload := bytes.Repeat([]byte("y"), 70<<10)

	put := func(key string, body io.Reader, declared int64) (int, error) {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/obj/"+key, body)
		if err != nil {
			t.Fatal(err)
		}
		if declared >= 0 {
			req.ContentLength = declared
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, nil
	}
	if code, err := put("chunked", chunked{bytes.NewReader(payload)}, -1); err != nil || code != http.StatusCreated {
		t.Fatalf("chunked PUT: status %d, %v", code, err)
	}
	if got, err := mem.Get(ctx, "chunked"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("chunked PUT stored %d bytes, %v", len(got), err)
	}
	// The client declares more than it sends: the transport reports the
	// mismatch or the server answers 400; the object must not be stored.
	if code, err := put("short", chunked{bytes.NewReader(payload)}, int64(len(payload))+10); err == nil && code != http.StatusBadRequest {
		t.Errorf("PUT shorter than its Content-Length: status %d", code)
	}
	if _, err := mem.Get(ctx, "short"); !errors.Is(err, ErrNotExist) {
		t.Errorf("truncated PUT was stored: %v", err)
	}
}
