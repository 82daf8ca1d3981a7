package storage

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestPutBodyLengths drives the server's PUT, over a MemStore (read
// whole) and over a FileStore (streamed into its temp file), with a
// declared, an undeclared (chunked), a short and a long body, and a
// write the store itself fails.
func TestPutBodyLengths(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	fs, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 70<<10)
	for name, store := range map[string]Store{"mem": NewMemStore(), "file": fs} {
		srv := httptest.NewServer(NewServer(store, ""))
		defer srv.Close()
		put := func(key string, body io.Reader, declared int64) int {
			req, err := http.NewRequest(http.MethodPut, srv.URL+"/obj/"+key, body)
			if err != nil {
				t.Fatal(err)
			}
			if declared >= 0 {
				req.ContentLength = declared
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp.StatusCode
		}
		if code := put("chunked", chunked{bytes.NewReader(payload)}, -1); code != http.StatusCreated {
			t.Fatalf("%s: chunked PUT: status %d", name, code)
		}
		if got, err := store.Get(ctx, "chunked"); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: chunked PUT stored %d bytes, %v", name, len(got), err)
		}
		if code := put("kept", bytes.NewReader([]byte("v1")), 2); code != http.StatusCreated {
			t.Fatalf("%s: PUT: status %d", name, code)
		}

		// The body ends 10 bytes short of its Content-Length: a 400 that
		// stores nothing, over a new key and over an existing one.
		for _, key := range []string{"short", "kept"} {
			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "PUT /obj/%s HTTP/1.1\r\nHost: store\r\nContent-Length: %d\r\n\r\n", key, len(payload)+10)
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: PUT %s shorter than its Content-Length: status %d, want 400", name, key, resp.StatusCode)
			}
		}
		if _, err := store.Get(ctx, "short"); !errors.Is(err, ErrNotExist) {
			t.Errorf("%s: truncated PUT was stored: %v", name, err)
		}
		if got, err := store.Get(ctx, "kept"); err != nil || string(got) != "v1" {
			t.Errorf("%s: truncated PUT over an object left %q, %v", name, got, err)
		}

		// A body longer than declared fails the same way; net/http never
		// reads past Content-Length, so drive putBody directly.
		if _, err := putBody(ctx, store, "long", bytes.NewReader(payload), int64(len(payload))-1); !errors.Is(err, errBody) {
			t.Errorf("%s: body longer than declared: %v", name, err)
		}
		if _, err := store.Get(ctx, "long"); !errors.Is(err, ErrNotExist) {
			t.Errorf("%s: overlong body was stored: %v", name, err)
		}
	}

	// A write the store fails is a 500: "kept" is an object, so no
	// directory can be made for "kept/x".
	srv := httptest.NewServer(NewServer(fs, ""))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/obj/kept/x", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("PUT the store cannot write: status %d, want 500", resp.StatusCode)
	}
	if left, err := os.ReadDir(filepath.Join(root, fileStoreTmp)); err != nil || len(left) != 0 {
		t.Errorf("failed PUTs left %d temp files (%v)", len(left), err)
	}
}

// byteStream is an endless deterministic byte stream, so a test can move a
// large object without holding it.
type byteStream struct{ off int }

// streamPeriod is what byteStream repeats: a prime length, so a chunk
// served at the wrong offset changes the stream's digest.
var streamPeriod = func() []byte {
	b := make([]byte, 4093)
	for i := range b {
		b[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	return b
}()

func (s *byteStream) Read(b []byte) (int, error) {
	n := copy(b, streamPeriod[s.off:])
	s.off = (s.off + n) % len(streamPeriod)
	return n, nil
}

// TestFileServerStreamsBodies pins a store node's memory per request: a
// PUT and a GET of a 64 MiB object through NewServer(FileStore) each
// allocate at most 1/16 of the object, client side included, because
// the body moves between the connection and the node's file and is
// never held whole. The GET body is the object, byte for byte.
func TestFileServerStreamsBodies(t *testing.T) {
	const size = 64 << 20
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(fs, ""))
	defer srv.Close()
	url := srv.URL + "/obj/big/object.bin"

	put := allocatedBy(func() {
		req, err := http.NewRequest(http.MethodPut, url, io.LimitReader(&byteStream{}, size))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = size
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT: status %d", resp.StatusCode)
		}
	})
	got := sha256.New()
	var resp *http.Response
	get := allocatedBy(func() {
		if resp, err = http.Get(url); err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(got, resp.Body); err != nil {
			t.Fatal(err)
		}
	})
	if resp.StatusCode != http.StatusOK || resp.ContentLength != size {
		t.Fatalf("GET: status %d, Content-Length %d, want 200 and %d", resp.StatusCode, resp.ContentLength, size)
	}
	want := sha256.New()
	if _, err := io.Copy(want, io.LimitReader(&byteStream{}, size)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
		t.Error("GET body differs from the object PUT")
	}
	for op, n := range map[string]uint64{"PUT": put, "GET": get} {
		if n > size/16 {
			t.Errorf("a %d-byte %s allocates %d bytes, want <= %d", size, op, n, size/16)
		}
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
