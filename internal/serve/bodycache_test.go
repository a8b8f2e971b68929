package serve

import (
	"bytes"
	"fmt"
	"testing"

	"pcstall/internal/orchestrate"
)

// The rendered-body tier is the settled-result store's body half: these
// tests pin the LRU contract the serving layer relies on.

// TestBodyCacheBasics: attach/get round-trips bytes and digest, a
// missing key misses, and a negative budget keeps no body.
func TestBodyCacheBasics(t *testing.T) {
	c := orchestrate.NewStore(1<<10, nil)
	body := []byte(`{"x":1}`)
	c.Attach("k1", body, "d1")
	got, ok := c.Get("k1")
	if !ok || !bytes.Equal(got.Body, body) || got.Digest != "d1" {
		t.Fatalf("get = (%q, %q, %v), want (%q, %q, true)", got.Body, got.Digest, ok, body, "d1")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("get on a missing key reported a hit")
	}
	if st := c.Stats(); st.Bodies != 1 || st.BodyBytes != int64(len(body)) || st.BodyEvictions != 0 {
		t.Fatalf("stats = %+v", st)
	}

	off := orchestrate.NewStore(-1, nil)
	off.Attach("k1", body, "d1")
	if _, ok := off.Get("k1"); ok {
		t.Fatal("negative budget stored a body")
	}
	if st := off.Stats(); st.Bodies != 0 || st.BodyBytes != 0 {
		t.Fatalf("negative-budget stats = %+v", st)
	}
}

// TestBodyCacheBoundedChurn: under sustained churn of distinct keys the
// store never exceeds its byte budget, evicts in LRU order, and a get
// refreshes recency.
func TestBodyCacheBoundedChurn(t *testing.T) {
	const budget = 1000
	c := orchestrate.NewStore(budget, nil)
	body := make([]byte, 100)
	for i := 0; i < 500; i++ {
		c.Attach(fmt.Sprintf("k%03d", i), body, "d")
		if st := c.Stats(); st.BodyBytes > budget || st.Bytes > budget {
			t.Fatalf("after put %d: %+v exceeds budget %d", i, st, budget)
		}
	}
	st := c.Stats()
	if st.Bodies != 10 || st.BodyBytes != 1000 || st.Entries != 10 {
		t.Fatalf("steady state = %+v, want 10 bodies in 1000 bytes", st)
	}
	if st.BodyEvictions != 490 || st.Evictions != 490 {
		t.Fatalf("evicted %d bodies / %d entries, want 490", st.BodyEvictions, st.Evictions)
	}
	// The survivors are the most recent ten.
	for i := 490; i < 500; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("recent key k%03d was evicted", i)
		}
	}
	// Touching the oldest survivor protects it from the next eviction.
	c.Get("k490")
	c.Attach("new", body, "d")
	if _, ok := c.Get("k490"); !ok {
		t.Fatal("freshly touched key was evicted; recency not refreshed")
	}
	if _, ok := c.Get("k491"); ok {
		t.Fatal("LRU key survived an over-budget put")
	}
}

// TestBodyCacheOversized: a body larger than the whole budget is not
// stored — it would evict everything to hold one entry.
func TestBodyCacheOversized(t *testing.T) {
	c := orchestrate.NewStore(64, nil)
	c.Attach("small", make([]byte, 10), "d")
	c.Attach("huge", make([]byte, 65), "d")
	if st := c.Stats(); st.BodyEvictions != 0 {
		t.Fatalf("oversized put evicted %d entries", st.BodyEvictions)
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized body was stored")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("oversized put displaced an existing entry")
	}
}

// TestBodyCacheDuplicatePut: re-attaching a key refreshes recency
// without growing the accounted size (content-addressed keys mean same
// bytes).
func TestBodyCacheDuplicatePut(t *testing.T) {
	c := orchestrate.NewStore(1000, nil)
	body := make([]byte, 100)
	c.Attach("a", body, "d")
	c.Attach("b", body, "d")
	c.Attach("a", body, "d") // refresh, not re-insert
	if st := c.Stats(); st.Bodies != 2 || st.BodyBytes != 200 {
		t.Fatalf("after duplicate put: %+v, want 2 bodies in 200 bytes", st)
	}
}
