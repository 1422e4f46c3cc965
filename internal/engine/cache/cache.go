// Package cache is the engine's content-addressed on-disk result cache.
// A campaign result is stored under the content address of its Key —
// (scenario ID, seed, trials, shard size, code fingerprint, operating
// point, trial range) — which is exactly the set of inputs the engine's
// determinism contract says the result is a pure function of. Repeated
// suite runs therefore skip unchanged work entirely, and any change to the
// binary (the code fingerprint) or to the run parameters misses cleanly
// instead of serving stale data.
//
// An address is 64 lowercase hex characters: a 16-character prefix naming
// the key's family (the key without its trial count and range, see
// Key.Hash), then 48 characters of the SHA-256 of the whole key. Entries
// live flat under the cache root as <address>.json, so a range probe finds
// its family's candidates by file name and opens nothing else.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilientloc/internal/obs"
)

// Cache telemetry: hit/miss/GC counters plus Get/Put latency histograms,
// registered on the process-wide registry (served by locd's /metrics).
var (
	obsGets      = obs.Default().Counter("cache_get_total")
	obsHits      = obs.Default().Counter("cache_hit_total")
	obsMisses    = obs.Default().Counter("cache_miss_total")
	obsPuts      = obs.Default().Counter("cache_put_total")
	obsPutErrs   = obs.Default().Counter("cache_put_errors_total")
	obsGCSweeps  = obs.Default().Counter("cache_gc_sweeps_total")
	obsGCRemoved = obs.Default().Counter("cache_gc_removed_total")
	obsGetSec    = obs.Default().Histogram("cache_get_seconds", obs.DefLatencyBuckets)
	obsPutSec    = obs.Default().Histogram("cache_put_seconds", obs.DefLatencyBuckets)
	// Range probes: latency, and the entry files they open (only the
	// probed family's, whatever the size of the cache).
	obsProbeSec   = obs.Default().Histogram("cache_probe_seconds", obs.DefLatencyBuckets)
	obsProbeReads = obs.Default().Counter("cache_probe_reads_total")
)

// Key identifies one deterministic campaign execution.
type Key struct {
	// Kind is the job registry the scenario name belongs to (spec.KindFigure
	// or spec.KindScenario). Without it, a figure and a library scenario
	// sharing a name would collide on one entry whose stored shape only one
	// of them can decode.
	Kind        string `json:"kind,omitempty"`
	Scenario    string `json:"scenario"`
	Seed        int64  `json:"seed"`
	Trials      int    `json:"trials"`
	ShardSize   int    `json:"shard_size"`
	Fingerprint string `json:"fingerprint"`

	// RangeLo/RangeHi identify a partial execution over the trial sub-range
	// [RangeLo, RangeHi) of the full Trials. Both zero (the encoding omits
	// them) means the full run. This is the sharding coordinator's
	// coordination record: each distributed sub-range is cached — and
	// deduplicated — under its own content address, while Trials still
	// names the full job the range belongs to.
	RangeLo int `json:"range_lo,omitempty"`
	RangeHi int `json:"range_hi,omitempty"`
	// Retained marks a partial execution that carries per-trial values for
	// the campaign's Finalize step (engine.Partial.Retained). It is a key
	// ingredient because retained and unretained partials of one range
	// store different aggregates; full runs never cache retained values,
	// so the flag stays false (omitted) for them.
	Retained bool `json:"retained,omitempty"`
	// Params is the canonical encoding of the job's fully-resolved
	// operating point (params.Map.Canonical of spec.Resolved.Params), empty
	// for param-less jobs — whose key hashes therefore predate the field.
	// It is a string, not a map, because Keys must stay comparable for the
	// in-memory index; resolution has already filled defaults, so a spec
	// spelling out a default and one omitting it share the entry. Without
	// it, nearby operating points that truncate to one scenario name
	// ("ranging-noise-6db" covers every delta in [6, 7)) would collide.
	Params string `json:"params,omitempty"`
}

// familyLen is the length of the family prefix that opens every address.
const familyLen = 16

// Hash returns the key's content address, 64 lowercase hex characters. The
// first familyLen are the leading hex of the SHA-256 of the key's family —
// its canonical JSON with Trials, RangeLo and RangeHi zeroed, exactly the
// fields RangeEntries ignores when it matches — so every full-run and
// partial entry of one job, at any trial count, shares a prefix. The other
// 48 are the leading hex of the SHA-256 of the key's own canonical JSON.
// Keys of one family differ in those 48; keys of two families differ in
// the prefix unless its 64 bits collide, which costs a probe one extra
// read and never a wrong match (the stored key is always compared).
func (k Key) Hash() string {
	full := sha256.Sum256(k.canonical())
	var addr [2 * sha256.Size]byte
	copy(addr[:familyLen], k.family())
	hex.Encode(addr[familyLen:], full[:(len(addr)-familyLen)/2])
	return string(addr[:])
}

// family returns the key's family prefix: the first familyLen hex
// characters of the SHA-256 of the key with Trials, RangeLo and RangeHi
// zeroed.
func (k Key) family() string {
	k.Trials, k.RangeLo, k.RangeHi = 0, 0, 0
	sum := sha256.Sum256(k.canonical())
	return hex.EncodeToString(sum[:familyLen/2])
}

// canonical returns the key's canonical JSON encoding.
func (k Key) canonical() []byte {
	b, err := json.Marshal(k)
	if err != nil {
		// Key is a struct of strings and integers; Marshal cannot fail.
		panic(fmt.Sprintf("cache: marshal key: %v", err))
	}
	return b
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

// Fingerprint returns a digest of the running executable, computed once per
// process. Any rebuild of the binary changes it, so cached results can never
// outlive the code that produced them. If the executable cannot be read the
// fingerprint is "unknown", which still caches consistently within rebuilds
// of the same path but is shared across them — the conservative failure mode
// is a possible stale hit only on platforms without os.Executable support.
func Fingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprint = "unknown"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		fingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return fingerprint
}

// Cache is an on-disk store of JSON-encoded campaign results.
type Cache struct {
	dir string
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// entry is the stored file format: the full key rides along with the value
// so entries are self-describing and hash collisions are detected instead
// of trusted.
type entry struct {
	Key   Key             `json:"key"`
	Value json.RawMessage `json:"value"`
}

// entryPath returns the path of the entry stored under a content address.
func (c *Cache) entryPath(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// Get looks up k and, on a hit, JSON-decodes the stored value into out
// (which must be a pointer). The boolean reports whether a valid entry was
// found; a missing or unreadable entry is a miss, not an error. Every call
// books one Get: cache_get_total, its hit or miss, and its latency.
func (c *Cache) Get(k Key, out any) (bool, error) {
	start := time.Now()
	hit, err := c.Peek(k, out)
	BookGet(start, hit)
	return hit, err
}

// Peek is Get without the booking, for a read that may prove moot: the
// caller books it with BookGet only when it acts on the answer, so a
// speculative lookup that a later Get repeats still counts as one Get.
// Peek takes no lock; Put's atomic rename means it reads either a whole
// entry or none.
func (c *Cache) Peek(k Key, out any) (bool, error) {
	path := c.entryPath(k.Hash())
	b, err := os.ReadFile(path)
	if err != nil {
		return false, nil
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return false, nil // corrupt entry: treat as a miss
	}
	if e.Key != k {
		return false, nil // hash collision or tampering: recompute
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		return false, fmt.Errorf("cache: decode value for %s: %w", k.Scenario, err)
	}
	// Refresh the entry's mtime (best-effort) so the age- and size-bounded
	// GC evicts by last use, not creation time — a daily-hit entry must
	// never age out while cold ones do.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return true, nil
}

// BookGet books one Get that started at start and found (hit) or missed its
// entry.
func BookGet(start time.Time, hit bool) {
	obsGetSec.Observe(time.Since(start).Seconds())
	obsGets.Inc()
	if hit {
		obsHits.Inc()
	} else {
		obsMisses.Inc()
	}
}

// GCResult summarizes one cache sweep.
type GCResult struct {
	// Scanned is the number of entries examined.
	Scanned int
	// Removed is the number of entries deleted.
	Removed int
	// RemainingBytes is the total size of the entries kept.
	RemainingBytes int64
}

// gcStampName marks the last completed sweep; its mtime throttles MaybeGC.
const gcStampName = ".gc-stamp"

// GC sweeps the cache directory: entries older than maxAge are removed
// (maxAge <= 0 disables the age bound), and if the surviving entries still
// exceed maxBytes in total they are removed oldest-first until under the
// bound (maxBytes <= 0 disables the size bound). Entries fingerprinted by
// binaries that no longer exist have no reachable key, so age is the only
// signal that they are dead — this is the eviction path that keeps the
// directory from growing forever across rebuilds. Leftover temp files from
// interrupted Puts are removed once they are stale.
func (c *Cache) GC(maxAge time.Duration, maxBytes int64) (GCResult, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return GCResult{}, fmt.Errorf("cache: gc: %w", err)
	}
	type file struct {
		path string
		mod  time.Time
		size int64
	}
	var res GCResult
	var files []file
	now := time.Now()
	for _, de := range entries {
		name := de.Name()
		fi, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		if strings.HasPrefix(name, "put-") {
			// An interrupted Put's temp file; give in-flight writes an hour.
			if now.Sub(fi.ModTime()) > time.Hour {
				_ = os.Remove(filepath.Join(c.dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue // the stamp file and anything foreign
		}
		files = append(files, file{path: filepath.Join(c.dir, name), mod: fi.ModTime(), size: fi.Size()})
	}
	res.Scanned = len(files)
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	var total int64
	kept := files[:0]
	for _, f := range files {
		if maxAge > 0 && now.Sub(f.mod) > maxAge {
			_ = os.Remove(f.path)
			res.Removed++
			continue
		}
		kept = append(kept, f)
		total += f.size
	}
	for i := 0; maxBytes > 0 && total > maxBytes && i < len(kept); i++ {
		_ = os.Remove(kept[i].path)
		res.Removed++
		total -= kept[i].size
	}
	res.RemainingBytes = total
	obsGCSweeps.Inc()
	obsGCRemoved.Add(int64(res.Removed))
	return res, nil
}

// MaybeGC runs GC at most once per minInterval per cache directory (tracked
// by a stamp file's mtime), so sessions can invoke it opportunistically
// without paying a directory sweep on every run. The boolean reports whether
// a sweep actually ran.
func (c *Cache) MaybeGC(minInterval, maxAge time.Duration, maxBytes int64) (GCResult, bool, error) {
	stamp := filepath.Join(c.dir, gcStampName)
	if fi, err := os.Stat(stamp); err == nil && time.Since(fi.ModTime()) < minInterval {
		return GCResult{}, false, nil
	}
	// Stamp before sweeping so concurrent sessions don't all pay the sweep.
	if err := os.WriteFile(stamp, nil, 0o644); err != nil {
		return GCResult{}, false, fmt.Errorf("cache: gc stamp: %w", err)
	}
	res, err := c.GC(maxAge, maxBytes)
	return res, true, err
}

// putSeq distinguishes concurrent temp files written by one process; the
// temp name also embeds the pid, so any number of processes sharing a cache
// directory write disjoint temp files.
var putSeq atomic.Uint64

// Put stores v under k. The entry is staged in a private temp file — opened
// with O_EXCL under a (key, pid, sequence)-unique name, so two processes
// sharing the cache directory (a locd daemon and a CLI, or several of
// either) can never interleave writes into one staging file — and then
// renamed into place, so a reader observes either the old complete entry or
// the new complete entry, never a torn one. Losing the rename race to a
// concurrent writer of the same key is harmless: both wrote the same
// deterministic value.
func (c *Cache) Put(k Key, v any) error {
	start := time.Now()
	err := c.put(k, v)
	obsPutSec.Observe(time.Since(start).Seconds())
	obsPuts.Inc()
	if err != nil {
		obsPutErrs.Inc()
	}
	return err
}

func (c *Cache) put(k Key, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: encode value for %s: %w", k.Scenario, err)
	}
	b, err := json.Marshal(entry{Key: k, Value: raw})
	if err != nil {
		return fmt.Errorf("cache: encode entry for %s: %w", k.Scenario, err)
	}
	hash := k.Hash()
	var tmp *os.File
	for attempt := 0; ; attempt++ {
		name := fmt.Sprintf("put-%s-%d-%d", hash[:12], os.Getpid(), putSeq.Add(1))
		tmp, err = os.OpenFile(filepath.Join(c.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		// A name collision means a leftover temp file from a recycled pid;
		// the next sequence number is fresh. Anything else is a real error.
		if !errors.Is(err, fs.ErrExist) || attempt >= 4 {
			return fmt.Errorf("cache: %w", err)
		}
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.entryPath(hash)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// RangeEntry locates one cached partial execution of a job: the trial
// sub-range [Lo, Hi) it covers, the full trial count the partial was
// executed under (entries banked by runs at other trial counts surface
// too; see RangeEntries), and the content address it is stored under
// (fetchable via EntryByHash, locally or over locd's /v1/cache endpoint).
type RangeEntry struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Trials is the full trial count stamped on the entry's key — the N of
	// the run that banked it, not necessarily the N of the job probing now.
	// A consumer reusing a cross-N entry must revalidate and restamp its
	// geometry (engine.AdaptPartial) before merging it.
	Trials int    `json:"trials"`
	Hash   string `json:"hash"`
}

// RangeEntries lists the cache's partial-execution entries belonging to
// the job identified by base: a key with RangeLo/RangeHi zero whose other
// fields — including Retained — are what the job's partials carry. The
// base key's Trials is ignored for matching: a partial banked by a
// 1024-trial run of the same (scenario, seed, shard size, fingerprint,
// params) is a reusable prefix of a 4096-trial request, so entries of
// every trial count surface, each carrying its own Trials for the caller
// to classify (same-N crash-resume versus cross-N prefix reuse). This is
// the probe behind both the crash-resume coordinator and the prefix-reuse
// planner: enumerate what survives, greedily cover the trial space, and
// re-execute only the gaps. Entries are returned sorted by Lo ascending,
// then wider-first, the order a greedy cover wants.
//
// Every such entry's address starts with base's family prefix (see
// Key.Hash), so the probe lists the directory once and opens only the
// files whose names carry that prefix: its cost follows the size of the
// job's family, not of the cache. Each opened entry must still have a
// non-empty range within its own Trials, an address equal to its stored
// key's hash, and a stored key in base's family, so a prefix collision or
// a renamed file is skipped, never matched.
func (c *Cache) RangeEntries(base Key) ([]RangeEntry, error) {
	start := time.Now()
	out, err := c.rangeEntries(base)
	obsProbeSec.Observe(time.Since(start).Seconds())
	return out, err
}

func (c *Cache) rangeEntries(base Key) ([]RangeEntry, error) {
	base.Trials, base.RangeLo, base.RangeHi = 0, 0, 0
	prefix := base.family()
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: range scan: %w", err)
	}
	var out []RangeEntry
	for _, de := range files {
		hash, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || len(hash) != 2*sha256.Size || !strings.HasPrefix(hash, prefix) {
			continue
		}
		obsProbeReads.Inc()
		b, err := os.ReadFile(c.entryPath(hash))
		if err != nil {
			continue // raced with GC
		}
		var e struct {
			Key Key `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			continue // corrupt entry; Get would treat it as a miss too
		}
		if e.Key.RangeHi <= e.Key.RangeLo || e.Key.RangeHi > e.Key.Trials || e.Key.Hash() != hash {
			continue
		}
		k := e.Key
		k.Trials, k.RangeLo, k.RangeHi = 0, 0, 0
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
		// Same interval at two trial counts: a fixed order keeps probe
		// responses deterministic; the consumer breaks the tie by policy.
		if out[i].Trials != out[j].Trials {
			return out[i].Trials < out[j].Trials
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}

// EntryByHash returns the raw stored entry (key and value, self-describing
// JSON) addressed by a key hash, as served over the wire by locd's
// /v1/cache endpoint. The boolean reports existence. The hash is validated
// as exactly a hex content address before touching the filesystem.
func (c *Cache) EntryByHash(hash string) ([]byte, bool, error) {
	if len(hash) != 2*sha256.Size {
		return nil, false, fmt.Errorf("cache: invalid entry hash %q", hash)
	}
	for _, r := range hash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return nil, false, fmt.Errorf("cache: invalid entry hash %q", hash)
		}
	}
	b, err := os.ReadFile(c.entryPath(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	return b, true, nil
}
