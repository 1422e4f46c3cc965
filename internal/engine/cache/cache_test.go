package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey() Key {
	return Key{Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc"}
}

func TestKeyHashSensitivity(t *testing.T) {
	base := testKey()
	baseHash := base.Hash()
	if baseHash != base.Hash() {
		t.Fatal("hash not stable")
	}
	variants := map[string]Key{
		"kind":        {Kind: "figure", Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc"},
		"scenario":    {Scenario: "other", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc"},
		"seed":        {Scenario: "s", Seed: 2, Trials: 8, ShardSize: 2, Fingerprint: "abc"},
		"trials":      {Scenario: "s", Seed: 1, Trials: 9, ShardSize: 2, Fingerprint: "abc"},
		"shard size":  {Scenario: "s", Seed: 1, Trials: 8, ShardSize: 3, Fingerprint: "abc"},
		"fingerprint": {Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "xyz"},
		"params":      {Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc", Params: `{"delta_db":6.5}`},
		"range_lo":    {Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc", RangeLo: 2},
		"range_hi":    {Scenario: "s", Seed: 1, Trials: 8, ShardSize: 2, Fingerprint: "abc", RangeHi: 4},
	}
	for field, k := range variants {
		if k.Hash() == baseHash {
			t.Errorf("changing %s did not change the key hash", field)
		}
	}
}

// TestKeyFamilyPrefix: the first familyLen characters of an address name
// the key's family. Keys that differ only in Trials or the range share
// them, so a range probe can select its candidates by file name; changing
// any other field moves the key to another family. Every address stays a
// valid EntryByHash argument.
func TestKeyFamilyPrefix(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	base := testKey()
	prefix := base.Hash()[:familyLen]
	accepted := func(name string, k Key) {
		t.Helper()
		if _, _, err := c.EntryByHash(k.Hash()); err != nil {
			t.Errorf("%s: EntryByHash rejected the address %q: %v", name, k.Hash(), err)
		}
	}
	accepted("base", base)
	sameFamily := map[string]func(*Key){
		"trials":   func(k *Key) { k.Trials = 4096 },
		"range_lo": func(k *Key) { k.RangeLo = 2 },
		"range_hi": func(k *Key) { k.RangeHi = 4 },
		"range":    func(k *Key) { k.Trials, k.RangeLo, k.RangeHi = 16, 8, 16 },
	}
	for name, edit := range sameFamily {
		k := base
		edit(&k)
		if k.Hash() == base.Hash() {
			t.Errorf("%s: address did not change", name)
		}
		if got := k.Hash()[:familyLen]; got != prefix {
			t.Errorf("%s: family prefix %s, want %s", name, got, prefix)
		}
		accepted(name, k)
	}
	otherFamily := map[string]func(*Key){
		"kind":        func(k *Key) { k.Kind = "figure" },
		"scenario":    func(k *Key) { k.Scenario = "other" },
		"seed":        func(k *Key) { k.Seed = 2 },
		"shard size":  func(k *Key) { k.ShardSize = 3 },
		"fingerprint": func(k *Key) { k.Fingerprint = "xyz" },
		"params":      func(k *Key) { k.Params = `{"delta_db":6.5}` },
	}
	for name, edit := range otherFamily {
		k := base
		edit(&k)
		if got := k.Hash()[:familyLen]; got == prefix {
			t.Errorf("changing %s kept the family prefix %s", name, got)
		}
		accepted(name, k)
	}
}

type payload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	want := payload{Name: "x", Values: []float64{1.5, -2.25, 0.1}}
	if hit, err := c.Get(k, &payload{}); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	if err := c.Put(k, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := c.Get(k, &got)
	if err != nil || !hit {
		t.Fatalf("after Put: hit=%v err=%v", hit, err)
	}
	if got.Name != want.Name || len(got.Values) != len(want.Values) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Errorf("value %d: %v != %v (float round trip must be exact)", i, got.Values[i], want.Values[i])
		}
	}

	// A different key misses even though an entry exists.
	other := k
	other.Seed = 99
	if hit, _ := c.Get(other, &payload{}); hit {
		t.Error("different seed hit the same entry")
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := c.Put(k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, k.Hash()+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if hit, err := c.Get(k, &payload{}); err != nil || hit {
		t.Errorf("corrupt entry: hit=%v err=%v, want clean miss", hit, err)
	}
}

// TestConcurrentWritersNeverTearEntries is the multi-process regression
// test for the O_EXCL staging path: two cache handles on one directory
// (standing in for a locd daemon and a CLI sharing a cache dir) hammer the
// same key while readers poll it. Every hit must decode into an internally
// consistent payload — a torn or interleaved entry would either fail to
// decode (Get returns an error) or break the payload's self-check.
func TestConcurrentWritersNeverTearEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	writerA, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writerB, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	// A consistent payload repeats one rune; mixing bytes of two writes is
	// detectable no matter where the tear lands.
	consistent := func(p payload) bool {
		if len(p.Name) != 512 {
			return false
		}
		return strings.Count(p.Name, p.Name[:1]) == len(p.Name)
	}
	const rounds = 200
	var wg sync.WaitGroup
	for wi, c := range []*Cache{writerA, writerB} {
		wg.Add(1)
		go func(wi int, c *Cache) {
			defer wg.Done()
			fill := strings.Repeat(string(rune('a'+wi)), 512)
			for i := 0; i < rounds; i++ {
				if err := c.Put(k, payload{Name: fill}); err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
			}
		}(wi, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	reads := 0
	for {
		select {
		case <-done:
			if reads == 0 {
				t.Fatal("reader never ran while writers were active")
			}
			// One final read after both writers finished must hit cleanly.
			var p payload
			hit, err := reader.Get(k, &p)
			if err != nil || !hit || !consistent(p) {
				t.Fatalf("final read: hit=%v err=%v payload=%.16q", hit, err, p.Name)
			}
			return
		default:
			var p payload
			hit, err := reader.Get(k, &p)
			if err != nil {
				t.Fatalf("read %d observed a torn entry: %v", reads, err)
			}
			if hit && !consistent(p) {
				t.Fatalf("read %d observed interleaved writer bytes: %.32q", reads, p.Name)
			}
			reads++
		}
	}
}

func TestEntryByHash(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := c.Put(k, payload{Name: "x", Values: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := c.EntryByHash(k.Hash())
	if err != nil || !ok {
		t.Fatalf("EntryByHash: ok=%v err=%v", ok, err)
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil || e.Key != k {
		t.Fatalf("raw entry not self-describing: err=%v key=%+v", err, e.Key)
	}
	if _, ok, err := c.EntryByHash(strings.Repeat("0", 64)); err != nil || ok {
		t.Errorf("absent hash: ok=%v err=%v, want clean miss", ok, err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 64), "../../etc/passwd" + strings.Repeat("0", 48)} {
		if _, _, err := c.EntryByHash(bad); err == nil {
			t.Errorf("hash %q accepted, want validation error", bad)
		}
	}
}

// TestPutTempNamesAreProcessUnique: the staging files two concurrent Puts
// create must never collide, and they are cleaned up afterwards.
func TestPutTempNamesAreProcessUnique(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey()
			k.Seed = int64(i)
			if err := c.Put(k, payload{Name: fmt.Sprintf("v%d", i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "put-") {
			t.Errorf("leftover staging file %s", de.Name())
		}
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Errorf("fingerprint unstable: %q vs %q", a, b)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("want error for empty cache dir")
	}
}

// putAged stores an entry under a seed-varied key and backdates its file.
func putAged(t *testing.T, c *Cache, seed int64, age time.Duration) Key {
	t.Helper()
	k := testKey()
	k.Seed = seed
	if err := c.Put(k, payload{Name: "x", Values: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(c.entryPath(k.Hash()), when, when); err != nil {
		t.Fatal(err)
	}
	return k
}

func hits(t *testing.T, c *Cache, k Key) bool {
	t.Helper()
	hit, err := c.Get(k, &payload{})
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestGCRemovesAgedEntries(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	old := putAged(t, c, 1, 48*time.Hour)
	fresh := putAged(t, c, 2, time.Minute)
	res, err := c.GC(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 2 || res.Removed != 1 {
		t.Errorf("GC = %+v, want 2 scanned 1 removed", res)
	}
	if hits(t, c, old) {
		t.Error("aged entry survived GC")
	}
	if !hits(t, c, fresh) {
		t.Error("fresh entry removed by age-bounded GC")
	}
}

func TestGCEnforcesSizeBoundOldestFirst(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	oldest := putAged(t, c, 1, 3*time.Hour)
	middle := putAged(t, c, 2, 2*time.Hour)
	newest := putAged(t, c, 3, time.Hour)
	fi, err := os.Stat(c.entryPath(newest.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	// Room for roughly two same-sized entries: the oldest must go first.
	res, err := c.GC(0, 2*fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.RemainingBytes > 2*fi.Size() {
		t.Errorf("GC = %+v, want 1 removed within %d bytes", res, 2*fi.Size())
	}
	if hits(t, c, oldest) {
		t.Error("oldest entry survived size-bounded GC")
	}
	if !hits(t, c, middle) || !hits(t, c, newest) {
		t.Error("size-bounded GC removed more than the oldest entry")
	}
}

// TestGetRefreshesAgeForGC: a hit must reset the entry's GC clock, so hot
// entries never age out while cold ones do.
func TestGetRefreshesAgeForGC(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	hot := putAged(t, c, 1, 48*time.Hour)
	cold := putAged(t, c, 2, 48*time.Hour)
	if !hits(t, c, hot) {
		t.Fatal("aged entry missed before GC")
	}
	if _, err := c.GC(24*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if !hits(t, c, hot) {
		t.Error("recently hit entry aged out")
	}
	if hits(t, c, cold) {
		t.Error("cold entry of the same age survived")
	}
}

func TestMaybeGCThrottlesByStamp(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	putAged(t, c, 1, 48*time.Hour)
	res, ran, err := c.MaybeGC(time.Hour, 24*time.Hour, 0)
	if err != nil || !ran || res.Removed != 1 {
		t.Fatalf("first MaybeGC: ran=%v removed=%d err=%v, want a sweep removing 1", ran, res.Removed, err)
	}
	survivor := putAged(t, c, 2, 48*time.Hour)
	if _, ran, err := c.MaybeGC(time.Hour, 24*time.Hour, 0); err != nil || ran {
		t.Fatalf("second MaybeGC within interval: ran=%v err=%v, want throttled", ran, err)
	}
	if !hits(t, c, survivor) {
		t.Error("throttled MaybeGC still removed an entry")
	}
}

// TestPeekSemantics pins what a read decides for each shape an entry file
// can take. Only a sound envelope stored under its own key is ever served;
// an envelope that is sound but whose value does not decode into the
// caller's type is reported as an error, and everything else is a clean
// miss. A miss or an error leaves out as it was.
func TestPeekSemantics(t *testing.T) {
	k := testKey()
	other := k
	other.Seed = 99
	want := payload{Name: "x", Values: []float64{1.5, -2.25}}
	keyJSON := func(key Key) string {
		b, err := json.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	const value = `{"name":"x","values":[1.5,-2.25]}`
	good := `{"key":` + keyJSON(k) + `,"value":` + value + `}`
	cases := []struct {
		name    string
		content string // "": no file at k's address
		hit     bool
		wantErr bool
	}{
		{name: "missing file"},
		{name: "truncated envelope", content: good[:len(good)/2]},
		{name: "garbled envelope", content: "{not json"},
		{name: "garbled stored key", content: `{"key":{"scenario":7},"value":` + value + `}`},
		{name: "stored key differs", content: `{"key":` + keyJSON(other) + `,"value":` + value + `}`},
		{name: "stored key differs, value of the wrong type", content: `{"key":` + keyJSON(other) + `,"value":[1,2,3]}`},
		{name: "value of the wrong type", content: `{"key":` + keyJSON(k) + `,"value":[1,2,3]}`, wantErr: true},
		{name: "envelope without a value", content: `{"key":` + keyJSON(k) + `}`, wantErr: true},
		{name: "hit", content: good, hit: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(filepath.Join(t.TempDir(), "cache"))
			if err != nil {
				t.Fatal(err)
			}
			path := c.entryPath(k.Hash())
			old := time.Now().Add(-48 * time.Hour).Truncate(time.Second)
			if tc.content != "" {
				if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(path, old, old); err != nil {
					t.Fatal(err)
				}
			}
			got := payload{Name: "untouched"}
			hit, err := c.Peek(k, &got)
			if hit != tc.hit || (err != nil) != tc.wantErr {
				t.Fatalf("Peek = (%v, %v), want hit=%v error=%v", hit, err, tc.hit, tc.wantErr)
			}
			if !tc.hit {
				if got.Name != "untouched" || got.Values != nil {
					t.Errorf("a read that was not served wrote %+v into out", got)
				}
				return
			}
			if got.Name != want.Name || len(got.Values) != 2 || got.Values[0] != want.Values[0] || got.Values[1] != want.Values[1] {
				t.Errorf("hit decoded %+v, want %+v", got, want)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if !fi.ModTime().After(old) {
				t.Errorf("hit left the entry's mtime at %v", fi.ModTime())
			}
		})
	}
}
