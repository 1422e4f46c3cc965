package cache

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fullScanRangeEntries is a frozen copy of the range probe before addresses
// carried a family prefix: it opens and decodes every entry in the cache
// and keeps those that pass the range, address and family checks. The
// equivalence test holds the family-prefix probe to its results.
func fullScanRangeEntries(dir string, base Key) ([]RangeEntry, error) {
	base.RangeLo, base.RangeHi = 0, 0
	base.Trials = 0
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: range scan: %w", err)
	}
	var out []RangeEntry
	for _, de := range files {
		name := de.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if len(hash) != 2*sha256.Size {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var e struct {
			Key Key `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			continue
		}
		if e.Key.RangeHi <= e.Key.RangeLo || e.Key.RangeHi > e.Key.Trials || e.Key.Hash() != hash {
			continue
		}
		k := e.Key
		k.RangeLo, k.RangeHi = 0, 0
		k.Trials = 0
		if k != base {
			continue
		}
		out = append(out, RangeEntry{Lo: e.Key.RangeLo, Hi: e.Key.RangeHi, Trials: e.Key.Trials, Hash: hash})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		if out[i].Hi != out[j].Hi {
			return out[i].Hi > out[j].Hi
		}
		if out[i].Trials != out[j].Trials {
			return out[i].Trials < out[j].Trials
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}

func rangeKey(base Key, trials, lo, hi int) Key {
	base.Trials, base.RangeLo, base.RangeHi = trials, lo, hi
	return base
}

// TestRangeEntriesMatchesFullScan builds a cache mixing the probed family
// with everything a probe must skip, and checks that the family-prefix
// probe returns exactly what the full scan returns while opening only the
// files whose names carry the probed family's prefix.
func TestRangeEntriesMatchesFullScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := Key{Kind: "scenario", Scenario: "multilat-town", Seed: 3, ShardSize: 4, Fingerprint: "live", Params: `{"x":1}`}
	stale := live
	stale.Fingerprint = "stale"
	prefix := live.Hash()[:familyLen]

	// familyFiles names every file carrying live's family prefix: the files
	// a probe of live may open, and must open, whatever they hold.
	familyFiles := map[string]bool{}
	put := func(k Key) string {
		t.Helper()
		if err := c.Put(k, payload{Name: k.Scenario, Values: []float64{float64(k.RangeLo), float64(k.RangeHi)}}); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(k.Hash(), prefix) {
			familyFiles[k.Hash()+".json"] = true
		}
		return k.Hash()
	}
	write := func(name string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, prefix) && len(name) == 2*sha256.Size+len(".json") {
			familyFiles[name] = true
		}
	}

	// The probed family at three trial counts, with overlapping and
	// identical intervals across counts.
	for _, r := range [][3]int{{16, 0, 8}, {16, 8, 16}, {32, 0, 16}, {32, 16, 32}, {32, 0, 32}, {64, 0, 32}, {64, 0, 8}} {
		put(rangeKey(live, r[0], r[1], r[2]))
	}
	// Full-key entries: the probed family's own, which the probe opens and
	// rejects by range, and another job's.
	put(rangeKey(live, 16, 0, 0))
	put(rangeKey(live, 64, 0, 0))
	other := live
	other.Seed = 4
	otherFull := put(rangeKey(other, 16, 0, 0))
	put(rangeKey(other, 16, 0, 8))
	// Foreign-fingerprint entries of the same job.
	staleHash := put(rangeKey(stale, 16, 0, 8))
	put(rangeKey(stale, 16, 0, 0))
	// Invalid ranges stored under their proper addresses.
	put(rangeKey(live, 16, 8, 24))
	put(rangeKey(live, 16, 4, 4))
	put(rangeKey(live, 16, 8, 4))
	// Corrupt files, in the family and outside it.
	write(prefix+strings.Repeat("0", 2*sha256.Size-familyLen)+".json", []byte("{not json"))
	write(strings.Repeat("1", 2*sha256.Size)+".json", []byte("{not json"))
	// A file under the family prefix whose stored key belongs to another
	// family, and one holding a valid family entry under a non-hex name.
	staleBytes, err := os.ReadFile(c.entryPath(staleHash))
	if err != nil {
		t.Fatal(err)
	}
	write(prefix+staleHash[familyLen:]+".json", staleBytes)
	liveBytes, err := os.ReadFile(c.entryPath(rangeKey(live, 16, 0, 8).Hash()))
	if err != nil {
		t.Fatal(err)
	}
	write(strings.Repeat("z", 2*sha256.Size)+".json", liveBytes)
	write(prefix+strings.Repeat("z", 2*sha256.Size-familyLen)+".json", liveBytes)
	write("notes.json", liveBytes)
	// Leftovers that are not entries at all.
	write(gcStampName, nil)
	write("put-"+otherFull[:12]+"-1-1", liveBytes)

	cases := []struct {
		name  string
		base  Key
		want  int
		reads int
	}{
		{"live", rangeKey(live, 4096, 0, 0), 7, len(familyFiles)},
		{"stale", rangeKey(stale, 16, 0, 0), 1, 2},
		{"other", other, 1, 2},
		{"absent", Key{Scenario: "absent", Fingerprint: "live"}, 0, 0},
	}
	for _, tc := range cases {
		want, err := fullScanRangeEntries(dir, tc.base)
		if err != nil {
			t.Fatal(err)
		}
		reads, probes := obsProbeReads.Value(), obsProbeSec.Count()
		got, err := c.RangeEntries(tc.base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probe = %+v, full scan = %+v", tc.name, got, want)
		}
		if len(got) != tc.want {
			t.Errorf("%s: %d entries, want %d", tc.name, len(got), tc.want)
		}
		if n := obsProbeReads.Value() - reads; n != int64(tc.reads) {
			t.Errorf("%s: probe opened %d files, want %d", tc.name, n, tc.reads)
		}
		if n := obsProbeSec.Count() - probes; n != 1 {
			t.Errorf("%s: probe histogram counted %d observations, want 1", tc.name, n)
		}
	}
	if n := len(familyFiles); n != 15 {
		t.Errorf("the probed family holds %d files, want 15", n)
	}
}

// BenchmarkRangeEntries probes one 4-entry family in caches that also hold
// N entries of other families. With family-prefixed addresses the probe
// opens only the family's files, so ns/op stays roughly flat in N apart
// from the directory listing; reads/op reports the files opened.
func BenchmarkRangeEntries(b *testing.B) {
	base := Key{Kind: "scenario", Scenario: "mobility-waypoint", Seed: 1, ShardSize: 8, Fingerprint: "live"}
	value := payload{Name: "partial", Values: make([]float64, 64)}
	for _, n := range []int{10, 1000, 10000} {
		c, err := Open(filepath.Join(b.TempDir(), "cache"))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range [][3]int{{32, 0, 32}, {64, 0, 32}, {64, 32, 64}, {64, 0, 0}} {
			if err := c.Put(rangeKey(base, r[0], r[1], r[2]), value); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			k := rangeKey(base, 64, 0, 32)
			k.Seed = int64(i + 2)
			if err := c.Put(k, value); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			reads := obsProbeReads.Value()
			for i := 0; i < b.N; i++ {
				got, err := c.RangeEntries(base)
				if err != nil || len(got) != 3 {
					b.Fatalf("probe = %v, %v; want 3 entries", got, err)
				}
			}
			b.ReportMetric(float64(obsProbeReads.Value()-reads)/float64(b.N), "reads/op")
		})
	}
}
