package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// storeImpls builds one instance of every Store implementation for
// table-driven conformance tests.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	public := httptest.NewServer(NewServer(NewMemStore(), ""))
	t.Cleanup(public.Close)
	private := httptest.NewServer(NewServer(NewMemStore(), "secret-token"))
	t.Cleanup(private.Close)
	return map[string]Store{
		"mem":         NewMemStore(),
		"file":        fs,
		"http-public": NewClient(public.URL, ""),
		"http-auth":   NewClient(private.URL, "secret-token"),
		"conditioned": NewConditioned(NewMemStore(), NetworkProfile{RTT: 10 * time.Microsecond}, 1),
	}
}

func TestStoreConformance(t *testing.T) {
	ctx := context.Background()
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			// Missing object.
			if _, err := s.Get(ctx, "missing/key"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Get missing: %v", err)
			}
			if _, err := s.Stat(ctx, "missing/key"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Stat missing: %v", err)
			}
			// Round trip.
			payload := []byte("terrain block payload")
			if err := s.Put(ctx, "a/b/c.bin", payload); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := s.Get(ctx, "a/b/c.bin")
			if err != nil || string(got) != string(payload) {
				t.Fatalf("Get: %q, %v", got, err)
			}
			// Stat.
			info, err := s.Stat(ctx, "a/b/c.bin")
			if err != nil || info.Size != int64(len(payload)) {
				t.Fatalf("Stat: %+v, %v", info, err)
			}
			// Overwrite.
			if err := s.Put(ctx, "a/b/c.bin", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get(ctx, "a/b/c.bin")
			if string(got) != "v2" {
				t.Fatalf("overwrite: %q", got)
			}
			// List with prefix.
			if err := s.Put(ctx, "a/d.bin", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(ctx, "z/e.bin", []byte("y")); err != nil {
				t.Fatal(err)
			}
			// A key ending in .tmp is a key like any other.
			if err := s.Put(ctx, "a/draft.tmp", []byte("t")); err != nil {
				t.Fatal(err)
			}
			infos, err := s.List(ctx, "a/")
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 3 || infos[0].Key != "a/b/c.bin" || infos[1].Key != "a/d.bin" || infos[2].Key != "a/draft.tmp" {
				t.Fatalf("List: %+v", infos)
			}
			// Delete; deleting twice is fine.
			if err := s.Delete(ctx, "a/d.bin"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(ctx, "a/d.bin"); err != nil {
				t.Fatalf("double delete: %v", err)
			}
			if _, err := s.Get(ctx, "a/d.bin"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Get after delete: %v", err)
			}
			// Empty payload.
			if err := s.Put(ctx, "empty.bin", nil); err != nil {
				t.Fatal(err)
			}
			got, err = s.Get(ctx, "empty.bin")
			if err != nil || len(got) != 0 {
				t.Errorf("empty payload: %q, %v", got, err)
			}
		})
	}
}

func TestValidKey(t *testing.T) {
	good := []string{"a", "a/b", "a.b/c-d_e", "0/1/2"}
	bad := []string{"", "/a", "a//b", "a/", "../x", "a/../b", "a/.", "."}
	for _, k := range good {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%q) = false", k)
		}
	}
	for _, k := range bad {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true", k)
		}
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	ctx := context.Background()
	for name, s := range map[string]Store{"mem": NewMemStore()} {
		if err := s.Put(ctx, "../escape", []byte("x")); err == nil {
			t.Errorf("%s: path escape accepted", name)
		}
	}
	fs, _ := NewFileStore(t.TempDir())
	if err := fs.Put(ctx, "../escape", []byte("x")); err == nil {
		t.Error("file store path escape accepted")
	}
	if _, err := fs.Get(ctx, fileStoreTmp+"/put-1"); errors.Is(err, ErrNotExist) || err == nil {
		t.Errorf("file store Get reached its staging directory: %v", err)
	}
}

func TestAuthRejectsBadToken(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewMemStore(), "good"))
	defer srv.Close()
	ctx := context.Background()

	// "goad" is wrong at the correct length; "goo" is the token minus
	// its last byte.
	for _, token := range []string{"bad", "goad", "goo"} {
		wrong := NewClient(srv.URL, token)
		if err := wrong.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("token %q Put: %v", token, err)
		}
		if _, err := wrong.Get(ctx, "k"); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("token %q Get: %v", token, err)
		}
	}
	none := NewClient(srv.URL, "")
	if _, err := none.List(ctx, ""); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("missing token List: %v", err)
	}
	right := NewClient(srv.URL, "good")
	if err := right.Put(ctx, "k", []byte("v")); err != nil {
		t.Errorf("right token Put: %v", err)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	data := []byte{1, 2, 3}
	s.Put(ctx, "k", data)
	data[0] = 9
	got, _ := s.Get(ctx, "k")
	if got[0] != 1 {
		t.Error("Put aliases caller buffer")
	}
	got[1] = 9
	got2, _ := s.Get(ctx, "k")
	if got2[1] != 2 {
		t.Error("Get aliases stored buffer")
	}
}

func TestConditionedAddsLatency(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	inner.Put(ctx, "k", make([]byte, 1000))
	slow := NewConditioned(inner, NetworkProfile{RTT: 5 * time.Millisecond}, 1)
	start := time.Now()
	if _, err := slow.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("conditioned Get took %v, want >= 5ms", elapsed)
	}
	st := slow.Stats()
	if st.Ops != 1 || st.BytesDownloaded != 1000 {
		t.Errorf("stats: %+v", st)
	}
}

func TestConditionedBandwidthScalesWithSize(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	inner.Put(ctx, "small", make([]byte, 1<<10))
	inner.Put(ctx, "large", make([]byte, 1<<20))
	// 64 MiB/s, no RTT: 1KiB ~ 15us, 1MiB ~ 16ms.
	slow := NewConditioned(inner, NetworkProfile{BandwidthBps: 64 << 20}, 1)
	t0 := time.Now()
	slow.Get(ctx, "small")
	smallTime := time.Since(t0)
	t1 := time.Now()
	slow.Get(ctx, "large")
	largeTime := time.Since(t1)
	if largeTime < smallTime*4 {
		t.Errorf("large transfer %v not clearly slower than small %v", largeTime, smallTime)
	}
}

func TestConditionedHonoursContext(t *testing.T) {
	inner := NewMemStore()
	inner.Put(context.Background(), "k", make([]byte, 10))
	slow := NewConditioned(inner, NetworkProfile{RTT: time.Second}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := slow.Get(ctx, "k"); err == nil {
		t.Error("cancelled Get succeeded")
	}
}

func TestDataverseLifecycle(t *testing.T) {
	ctx := context.Background()
	dv := NewDataverse(NewMemStore())
	doi, err := dv.CreateDataset(DatasetMeta{
		Title:       "CONUS Terrain Parameters 30m",
		Authors:     []string{"Taufer, M.", "Pascucci, V."},
		Description: "GEOtiled-derived terrain parameters",
		Subject:     "Earth and Environmental Sciences",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unpublished: not downloadable.
	if _, err := dv.GetFile(ctx, doi, "elevation.tif"); err == nil {
		t.Error("draft file downloadable before publish")
	}
	if err := dv.AddFile(ctx, doi, "elevation.tif", []byte("tif-bytes-v1")); err != nil {
		t.Fatal(err)
	}
	v, err := dv.Publish(ctx, doi)
	if err != nil || v != 1 {
		t.Fatalf("Publish: %d, %v", v, err)
	}
	data, err := dv.GetFile(ctx, doi, "elevation.tif")
	if err != nil || string(data) != "tif-bytes-v1" {
		t.Fatalf("GetFile: %q, %v", data, err)
	}
	// New draft on top: update file, publish v2, v1 stays immutable.
	if err := dv.AddFile(ctx, doi, "elevation.tif", []byte("tif-bytes-v2")); err != nil {
		t.Fatal(err)
	}
	if v, err := dv.Publish(ctx, doi); err != nil || v != 2 {
		t.Fatalf("Publish v2: %d, %v", v, err)
	}
	old, err := dv.GetFileVersion(ctx, doi, 1, "elevation.tif")
	if err != nil || string(old) != "tif-bytes-v1" {
		t.Fatalf("v1 immutability: %q, %v", old, err)
	}
	cur, _ := dv.GetFile(ctx, doi, "elevation.tif")
	if string(cur) != "tif-bytes-v2" {
		t.Fatalf("latest: %q", cur)
	}
	info, err := dv.Info(doi)
	if err != nil || info.Version != 2 || len(info.Files) != 1 {
		t.Errorf("Info: %+v, %v", info, err)
	}
}

func TestDataverseValidation(t *testing.T) {
	ctx := context.Background()
	dv := NewDataverse(NewMemStore())
	if _, err := dv.CreateDataset(DatasetMeta{}); err == nil {
		t.Error("untitled dataset accepted")
	}
	if err := dv.AddFile(ctx, "doi:nope", "f", []byte("x")); err == nil {
		t.Error("unknown DOI accepted")
	}
	doi, _ := dv.CreateDataset(DatasetMeta{Title: "t"})
	if err := dv.AddFile(ctx, doi, "../bad", []byte("x")); err == nil {
		t.Error("invalid file name accepted")
	}
	if _, err := dv.Publish(ctx, doi); err == nil {
		t.Error("publishing empty draft accepted")
	}
	if _, err := dv.GetFileVersion(ctx, doi, 3, "f"); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestDataverseDOIsUnique(t *testing.T) {
	dv := NewDataverse(NewMemStore())
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		doi, err := dv.CreateDataset(DatasetMeta{Title: fmt.Sprintf("d%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if seen[doi] {
			t.Fatalf("duplicate DOI %s", doi)
		}
		seen[doi] = true
	}
}

// TestConcurrentStoreAccess holds every Store to its concurrency contract:
// workers Put two different payloads to shared keys, and every Get returns
// one of them whole; a List racing a Delete under its prefix succeeds.
func TestConcurrentStoreAccess(t *testing.T) {
	ctx := context.Background()
	payloads := [][]byte{bytes.Repeat([]byte{'a'}, 256<<10), bytes.Repeat([]byte{'b'}, 192<<10)}
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						key := fmt.Sprintf("shared/k%d", i%3)
						if err := s.Put(ctx, key, payloads[w%2]); err != nil {
							t.Errorf("Put(%q): %v", key, err)
							return
						}
						got, err := s.Get(ctx, key)
						if err != nil {
							t.Errorf("Get(%q): %v", key, err)
							return
						}
						if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
							t.Errorf("Get(%q) = %d bytes equal to neither payload", key, len(got))
							return
						}
						if _, err := s.List(ctx, "shared/"); err != nil {
							t.Errorf("List: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			const n = 200
			for i := 0; i < n; i++ {
				if err := s.Put(ctx, fmt.Sprintf("gone/k%03d", i), []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			deleted := make(chan struct{})
			go func() {
				defer close(deleted)
				for i := 0; i < n; i++ {
					if err := s.Delete(ctx, fmt.Sprintf("gone/k%03d", i)); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}()
			for listing := true; listing; {
				select {
				case <-deleted:
					listing = false
				default:
				}
				if _, err := s.List(ctx, "gone/"); err != nil {
					t.Errorf("List during Delete: %v", err)
					break
				}
			}
			<-deleted
		})
	}
}

func TestMemStorePutGetProperty(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	f := func(suffix uint16, payload []byte) bool {
		key := fmt.Sprintf("p/%d", suffix)
		if err := s.Put(ctx, key, payload); err != nil {
			return false
		}
		got, err := s.Get(ctx, key)
		if err != nil || len(got) != len(payload) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMemStorePut(b *testing.B) {
	ctx := context.Background()
	s := NewMemStore()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(ctx, fmt.Sprintf("k%d", i%256), payload)
	}
}

func BenchmarkHTTPRoundTrip(b *testing.B) {
	srv := httptest.NewServer(NewServer(NewMemStore(), ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	ctx := context.Background()
	payload := make([]byte, 64<<10)
	if err := c.Put(ctx, "bench", payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
