package run_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
)

// TestRangeProbe: the crash-resume probe reports exactly the partial-range
// entries a session banked for a job — addressed by hashes that really
// fetch those entries — and distinguishes seeds and the full-run entry.
func TestRangeProbe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := newSession(t, run.Options{CacheDir: dir})
	full := scenSpec("multilat-town", 1, 8, 2)

	// Nothing banked yet.
	probe, err := s.RangeEntries(full)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Trials != 8 || probe.Full != "" || len(probe.Ranges) != 0 {
		t.Fatalf("empty-cache probe = %+v", probe)
	}

	// Bank two disjoint ranges; leave [3, 5) missing.
	for _, rg := range [][2]int{{0, 3}, {5, 8}} {
		if _, _, err := run.ExecuteSpec(s, rangeSpec(full, rg[0], rg[1])); err != nil {
			t.Fatal(err)
		}
	}
	probe, err = s.RangeEntries(full)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Full != "" {
		t.Errorf("probe reports a full entry before the full job ran: %q", probe.Full)
	}
	if len(probe.Ranges) != 2 || probe.Ranges[0].Lo != 0 || probe.Ranges[0].Hi != 3 ||
		probe.Ranges[1].Lo != 5 || probe.Ranges[1].Hi != 8 {
		t.Fatalf("probe ranges = %+v", probe.Ranges)
	}

	// The reported hashes fetch real partial entries.
	for _, re := range probe.Ranges {
		raw, ok, err := s.CacheEntry(re.Hash)
		if err != nil || !ok {
			t.Fatalf("entry %s: ok=%v err=%v", re.Hash, ok, err)
		}
		var e struct {
			Key   cache.Key  `json:"key"`
			Value spec.Value `json:"value"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.Key.RangeLo != re.Lo || e.Key.RangeHi != re.Hi || e.Value.Partial == nil {
			t.Fatalf("entry %s: key range [%d, %d), partial=%v", re.Hash, e.Key.RangeLo, e.Key.RangeHi, e.Value.Partial != nil)
		}
	}

	// Another seed's probe sees none of them.
	other, err := s.RangeEntries(scenSpec("multilat-town", 2, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Ranges) != 0 {
		t.Fatalf("seed-2 probe sees seed-1 ranges: %+v", other.Ranges)
	}

	// After the full job runs, the probe hands back its entry too.
	if _, _, err := run.ExecuteSpec(s, full); err != nil {
		t.Fatal(err)
	}
	probe, err = s.RangeEntries(full)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Full == "" {
		t.Fatal("probe missed the full-run entry")
	}
	if _, ok, err := s.CacheEntry(probe.Full); err != nil || !ok {
		t.Fatalf("full entry %s: ok=%v err=%v", probe.Full, ok, err)
	}

	// A spec that is itself a sub-range has nothing to resume.
	if _, err := s.RangeEntries(rangeSpec(full, 0, 3)); err == nil {
		t.Fatal("probing a sub-range spec should error")
	}

	// A cache-less session answers empty rather than failing.
	nc := newSession(t, run.Options{NoCache: true})
	probe, err = nc.RangeEntries(full)
	if err != nil || probe.Full != "" || len(probe.Ranges) != 0 {
		t.Fatalf("no-cache probe = %+v err=%v", probe, err)
	}
}

// TestRangeEntriesFigureFamily: a figure that pins per-trial retention
// banks its range partials in the family its own probe reads, so probing
// maxrange finds a banked [0, 9) range.
func TestRangeEntriesFigureFamily(t *testing.T) {
	s := newSession(t, run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
	fig := figSpec("maxrange", 1)
	if _, _, err := run.ExecuteSpec(s, rangeSpec(fig, 0, 9)); err != nil {
		t.Fatal(err)
	}
	probe, err := s.RangeEntries(fig)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Ranges) != 1 || probe.Ranges[0].Lo != 0 || probe.Ranges[0].Hi != 9 || probe.Ranges[0].Trials != 36 {
		t.Fatalf("figure probe = %+v, want the banked [0, 9) of 36", probe)
	}
}
