package spec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resilientloc/internal/engine/params"
	"resilientloc/internal/engine/spec"
)

// seedHashes pins every pre-params example spec to the job ID it had before
// JobSpec grew the params field. These are literal values, not recomputed:
// if any of them changes, existing caches, locd job tables, and every
// operator's saved job URL silently stop matching their history.
var seedHashes = []struct {
	file string
	id   string
	hash string
}{
	{"fig11-seed1.json", "fig11", "da553e69a09c2c8e30706306155789d9b532ed998234acd460d1de9ff8250b4e"},
	{"multilat-sweep.json", "multilat-town", "a8a3ea0705029823cc96e342ee75c57b939fe1272c21247736bbb39d810560f3"},
	{"multilat-sweep.json", "multilat-anchor-dropout-6", "86580ef7a4d9bd53a7b97b38faeeca96e08da32a4a6bd2d55db61d319a85a268"},
	{"multilat-sweep.json", "multilat-anchor-dropout-12", "752af49391cdc50c767edee879576777ef5433336837c62c595966c53ae32e56"},
	{"multilat-sweep.json", "multilat-grid-196", "f74487282289d5c1e66df7235c190dd7d2b718ce5423d474edaa1f426327794e"},
	{"ranging-figures.json", "fig02", "c4a4b9d852ba1797d7c87001e2bcaa07ad7f724a99b484874b8d6782fc821ffa"},
	{"ranging-figures.json", "fig04", "f894d2fae1716e592d86c2bf0b602555132be63604e3a578157328a2b8cadc59"},
	{"ranging-figures.json", "fig06", "bcf3918c55872fa1472dee671cc5cc54189535392f95b214c56bd166fe105e71"},
	{"ranging-figures.json", "fig07", "19309156838457c90742d1138aff3060a0a3e4f3eaecf7fcef14434548d1af6c"},
	{"ranging-figures.json", "fig08", "71db5c0803370c2dbf68641bfe86d223ccfcf9d6094c02019a3f2f0deafba93c"},
	{"ranging-figures.json", "fig10", "6436df2e7f3ebf5f278e2839658f77b93d9042c017a8f454a9dec26cdbc3030e"},
	{"ranging-figures.json", "maxrange", "2643f2a697c1e4790ea899a3e5867384a9eed54905552a4fb63a6c56e111edf5"},
}

func TestPreParamsExampleSpecsHashToSeedValues(t *testing.T) {
	byFile := map[string]map[string]string{}
	for _, p := range seedHashes {
		if byFile[p.file] == nil {
			byFile[p.file] = map[string]string{}
		}
		byFile[p.file][p.id] = p.hash
	}
	for file, want := range byFile {
		specs, err := spec.LoadFile(filepath.Join("..", "..", "..", "examples", "specs", file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got := map[string]string{}
		for _, s := range specs {
			got[s.ID] = s.Hash()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hashes drifted from the pre-params seed values\ngot:  %v\nwant: %v", file, got, want)
		}
	}
}

// TestParamSpecHashKeyOrderIndependent: the params object encodes with
// sorted keys, so every key order of the same document is the same job.
func TestParamSpecHashKeyOrderIndependent(t *testing.T) {
	a := `{"kind":"scenario","id":"mobility-waypoint","seed":1,"params":{"speed_mps":2.5,"epoch_s":4}}`
	b := `{"kind":"scenario","id":"mobility-waypoint","seed":1,"params":{"epoch_s":4,"speed_mps":2.5}}`
	da, err := spec.Decode(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.Decode(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if da[0].Hash() != db[0].Hash() {
		t.Errorf("key order changed the hash:\n%s\nvs\n%s", da[0].Canonical(), db[0].Canonical())
	}
	// "4" and "4.0" are the same number, hence the same job.
	c := `{"kind":"scenario","id":"mobility-waypoint","seed":1,"params":{"epoch_s":4.0,"speed_mps":2.5}}`
	dc, err := spec.Decode(strings.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if dc[0].Hash() != da[0].Hash() {
		t.Errorf("number spelling changed the hash: %s vs %s", dc[0].Canonical(), da[0].Canonical())
	}
	// A nil and an empty params map are both omitted — the param-less hash.
	bare := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1}
	empty := bare
	empty.Params = params.Map{}
	if bare.Hash() != empty.Hash() {
		t.Errorf("empty params map changed the hash: %s vs %s", bare.Canonical(), empty.Canonical())
	}
	// A different operating point is a different job.
	other := da[0]
	other.Params = params.Map{"speed_mps": params.Num(3), "epoch_s": params.Num(4)}
	if other.Hash() == da[0].Hash() {
		t.Error("distinct operating points hash identically")
	}
}

// FuzzSpecHashKeyOrder shuffles the fields of randomly-parameterized specs
// into fresh JSON documents and requires every permutation to decode to the
// same content hash.
func FuzzSpecHashKeyOrder(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(99), uint8(0))
	f.Add(int64(-7), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nParams uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := make(params.Map)
		for i := 0; i < int(nParams%8); i++ {
			name := fmt.Sprintf("p%d", rng.Intn(10))
			if rng.Intn(2) == 0 {
				p[name] = params.Num(float64(rng.Intn(2000)-1000) / 16)
			} else {
				p[name] = params.Str(fmt.Sprintf("v%d", rng.Intn(5)))
			}
		}
		base := spec.JobSpec{Kind: spec.KindScenario, ID: "x", Seed: seed, Params: p}
		if err := base.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}
		want := base.Hash()

		// Re-render the params object with shuffled key order and re-decode.
		names := p.Names()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		var doc bytes.Buffer
		fmt.Fprintf(&doc, `{"seed":%d,"id":"x","kind":"scenario"`, seed)
		if len(names) > 0 {
			doc.WriteString(`,"params":{`)
			for i, n := range names {
				if i > 0 {
					doc.WriteByte(',')
				}
				vb, err := p[n].MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&doc, "%q:%s", n, vb)
			}
			doc.WriteString("}")
		}
		doc.WriteString("}")
		decoded, err := spec.Decode(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatalf("decode %s: %v", doc.Bytes(), err)
		}
		if got := decoded[0].Hash(); got != want {
			t.Errorf("shuffled document %s hashes %s, canonical %s hashes %s",
				doc.Bytes(), got, base.Canonical(), want)
		}
	})
}

func TestResolveParams(t *testing.T) {
	// A factory spec resolves with defaults filled.
	r, err := spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "mobility-waypoint", Seed: 1,
		Params: params.Map{"speed_mps": params.Num(2.5)}})
	if err != nil {
		t.Fatal(err)
	}
	want := params.Map{"speed_mps": params.Num(2.5), "epoch_s": params.Num(4)}
	if !r.Params.Equal(want) {
		t.Errorf("resolved params %s, want %s", r.Params.Canonical(), want.Canonical())
	}
	// A parameterized figure resolves at the requested operating point.
	r, err = spec.Resolve(spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1,
		Params: params.Map{"rounds": params.Num(10)}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Params.Int("rounds") != 10 || r.Trials != 36 {
		t.Errorf("maxrange with rounds=10 resolved to params %s, %d trials", r.Params.Canonical(), r.Trials)
	}
	// Param-less jobs, scenario or figure, resolve with nil params.
	for _, s := range []spec.JobSpec{
		{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1},
		{Kind: spec.KindFigure, ID: "fig11", Seed: 1},
	} {
		r, err = spec.Resolve(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Params != nil {
			t.Errorf("param-less job %s resolved params %s", s.ID, r.Params.Canonical())
		}
	}

	// The default operating point spelled out as a param is byte-identical
	// to the param-less figure (the two specs are distinct wire jobs but
	// must produce the same bytes — and they share a cache key, since keys
	// embed the resolved map).
	if !testing.Short() {
		withDefault, err := spec.Resolve(spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1,
			Params: params.Map{"rounds": params.Num(40)}})
		if err != nil {
			t.Fatal(err)
		}
		bare, err := spec.Resolve(spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := executeValue(t, withDefault)
		b := executeValue(t, bare)
		if a.Figure == nil || b.Figure == nil || a.Figure.Render() != b.Figure.Render() {
			t.Error("maxrange with rounds=40 diverges from the param-less figure")
		}
	}

	for _, tc := range []struct {
		sp   spec.JobSpec
		want string
	}{
		{spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1,
			Params: params.Map{"drop": params.Num(3)}}, "takes no parameters"},
		{spec.JobSpec{Kind: spec.KindFigure, ID: "fig11", Seed: 1,
			Params: params.Map{"rounds": params.Num(3)}}, "takes no parameters"},
		{spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: 1,
			Params: params.Map{"bogus": params.Num(3)}}, `unknown parameter "bogus"`},
		{spec.JobSpec{Kind: spec.KindScenario, ID: "mobility-waypoint", Seed: 1,
			Params: params.Map{"speed_mps": params.Num(99)}}, "out of range"},
	} {
		if _, err := spec.Resolve(tc.sp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%+v) error %v, want it to mention %q", tc.sp, err, tc.want)
		}
	}
}
