package params

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestValueJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Value
		out  string // canonical re-encoding
	}{
		{`6`, Num(6), `6`},
		{`6.0`, Num(6), `6`}, // shortest round-trip form wins
		{`9.5`, Num(9.5), `9.5`},
		{`-0.25`, Num(-0.25), `-0.25`},
		{`1e3`, Num(1000), `1000`},
		{`"grass"`, Str("grass"), `"grass"`},
		{`""`, Str(""), `""`},
	}
	for _, c := range cases {
		var v Value
		if err := json.Unmarshal([]byte(c.in), &v); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if !v.Equal(c.want) {
			t.Errorf("unmarshal %s: got %v, want %v", c.in, v, c.want)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %s: %v", c.in, err)
		}
		if string(b) != c.out {
			t.Errorf("re-encode %s: got %s, want %s", c.in, b, c.out)
		}
	}
}

func TestValueJSONRejects(t *testing.T) {
	for _, in := range []string{`null`, `true`, `false`, `{}`, `[1]`, `{"a":1}`} {
		var v Value
		if err := json.Unmarshal([]byte(in), &v); err == nil {
			t.Errorf("unmarshal %s: want error, got %v", in, v)
		}
	}
}

func TestZeroAndNonFiniteValuesDoNotMarshal(t *testing.T) {
	if _, err := json.Marshal(Value{}); err == nil {
		t.Error("zero Value marshaled")
	}
	if _, err := json.Marshal(Num(math.NaN())); err == nil {
		t.Error("NaN marshaled")
	}
	if _, err := json.Marshal(Num(math.Inf(1))); err == nil {
		t.Error("+Inf marshaled")
	}
	m := Map{"x": Num(math.NaN())}
	if err := m.Validate(); err == nil {
		t.Error("Map.Validate accepted NaN")
	}
}

func TestMapCanonicalSortsKeys(t *testing.T) {
	m := Map{"zeta": Num(1), "alpha": Str("a"), "mid": Str("6")}
	got := string(m.Canonical())
	want := `{"alpha":"a","mid":"6","zeta":1}`
	if got != want {
		t.Errorf("canonical: got %s, want %s", got, want)
	}
	// Decoding any key order yields the same canonical bytes.
	var back Map
	if err := json.Unmarshal([]byte(`{"zeta":1,"mid":"6","alpha":"a"}`), &back); err != nil {
		t.Fatal(err)
	}
	if string(back.Canonical()) != want {
		t.Errorf("reordered decode: got %s, want %s", back.Canonical(), want)
	}
	if !m.Equal(back) {
		t.Error("maps with same content not Equal")
	}
}

func TestMapCloneAndEqual(t *testing.T) {
	if got := Map(nil).Clone(); got != nil {
		t.Errorf("nil clone: got %v", got)
	}
	m := Map{"a": Num(1)}
	c := m.Clone()
	c["a"] = Num(2)
	if m.Float("a") != 1 {
		t.Error("clone aliased the original")
	}
	if m.Equal(c) {
		t.Error("differing maps reported Equal")
	}
	if !m.Equal(Map{"a": Num(1)}) {
		t.Error("equal maps reported unequal")
	}
	if m.Equal(Map{"a": Num(1), "b": Num(2)}) {
		t.Error("subset reported Equal")
	}
}

func testSchema() Schema {
	return Schema{
		{Name: "delta_db", Kind: Float, Default: Num(6), Min: -20, Max: 40, Help: "noise floor delta"},
		{Name: "drop", Kind: Int, Default: Num(6), Min: 0, Max: 18, Help: "anchors to drop"},
		{Name: "env", Kind: String, Default: Str("grass"), Enum: []string{"grass", "pavement"}, Help: "terrain"},
	}
}

func TestSchemaSelfCheck(t *testing.T) {
	if err := testSchema().SelfCheck(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{{Name: "", Kind: Float, Default: Num(0)}},
		{{Name: "a", Kind: Float, Default: Num(0)}, {Name: "a", Kind: Float, Default: Num(0)}},
		{{Name: "a", Kind: Float, Default: Num(0), Min: 5, Max: 1}},
		{{Name: "a", Kind: String, Default: Str("x")}},                          // no enum
		{{Name: "a", Kind: Int, Default: Num(1.5), Min: 0, Max: 9}},             // fractional default
		{{Name: "a", Kind: Float, Default: Num(99), Min: 0, Max: 9}},            // default out of range
		{{Name: "a", Kind: String, Default: Str("z"), Enum: []string{"grass"}}}, // default not in enum
		{{Name: "a", Kind: Kind(0), Default: Num(0)}},                           // invalid kind
		{{Name: "a", Kind: Float, Default: Str("x"), Min: 0, Max: 9}},           // default wrong type
	}
	for i, s := range bad {
		if err := s.SelfCheck(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	ok := []Map{
		nil,
		{},
		{"delta_db": Num(9.5)},
		{"drop": Num(0)},
		{"drop": Num(18)},
		{"env": Str("pavement")},
		{"delta_db": Num(-20), "drop": Num(3), "env": Str("grass")},
	}
	for i, m := range ok {
		if err := s.Validate(m); err != nil {
			t.Errorf("valid map %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		m    Map
		frag string // required error-message fragment
	}{
		{Map{"nope": Num(1)}, `unknown parameter "nope"`},
		{Map{"nope": Num(1)}, "delta_db, drop, env"}, // lists accepted names
		{Map{"delta_db": Num(41)}, "out of range"},
		{Map{"delta_db": Num(-21)}, "out of range"},
		{Map{"delta_db": Str("six")}, "want a number"},
		{Map{"drop": Num(1.5)}, "want an integer"},
		{Map{"drop": Num(math.NaN())}, "non-finite"},
		{Map{"env": Str("urban")}, `not one of grass|pavement`},
		{Map{"env": Num(1)}, "want a string"},
		{Map{"drop": Str("true")}, "want a number"}, // -param drop=true
		{Map{"env": Str("false")}, `not one of grass|pavement`},
	}
	for i, c := range bad {
		err := s.Validate(c.m)
		if err == nil {
			t.Errorf("bad map %d accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("bad map %d: error %q missing %q", i, err, c.frag)
		}
	}
}

func TestSchemaResolveFillsDefaults(t *testing.T) {
	s := testSchema()
	got, err := s.Resolve(Map{"delta_db": Num(9.5)})
	if err != nil {
		t.Fatal(err)
	}
	want := Map{"delta_db": Num(9.5), "drop": Num(6), "env": Str("grass")}
	if !got.Equal(want) {
		t.Errorf("resolve: got %s, want %s", got.Canonical(), want.Canonical())
	}
	// A spelled-out default resolves to the same map as an omitted one —
	// the cache-key unification property.
	explicit, err := s.Resolve(Map{"drop": Num(6)})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(explicit.Canonical()) != string(empty.Canonical()) {
		t.Errorf("explicit default %s != omitted default %s", explicit.Canonical(), empty.Canonical())
	}
	if _, err := s.Resolve(Map{"bogus": Num(1)}); err == nil {
		t.Error("resolve accepted unknown param")
	}
}

// TestEmptySchemaTakesNoParameters: an empty schema is a fixed operating
// point. It rejects any params by name and resolves to a nil map, so a fixed
// point's cache key carries no params.
func TestEmptySchemaTakesNoParameters(t *testing.T) {
	var s Schema
	for _, m := range []Map{nil, {}} {
		got, err := s.Resolve(m)
		if err != nil || got != nil {
			t.Errorf("Resolve(%v) = %v, %v; want nil, nil", m, got, err)
		}
	}
	_, err := s.Resolve(Map{"rounds": Num(5), "drop": Num(1)})
	if err == nil || !strings.Contains(err.Error(), "takes no parameters (given: drop, rounds)") {
		t.Errorf("params on an empty schema: got %v", err)
	}
}

func TestParseArg(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want Value
	}{
		{"delta_db=9.5", "delta_db", Num(9.5)},
		{"drop=6", "drop", Num(6)},
		{"env=grass", "env", Str("grass")},
		{"strict=true", "strict", Str("true")}, // no bool kind: a schema rejects it
		{"strict=false", "strict", Str("false")},
		{"label=1x", "label", Str("1x")},
		{"eq=a=b", "eq", Str("a=b")}, // first '=' splits
		{"nan=NaN", "nan", Str("NaN")},
	}
	for _, c := range cases {
		name, v, err := ParseArg(c.in)
		if err != nil {
			t.Fatalf("ParseArg(%q): %v", c.in, err)
		}
		if name != c.name || !v.Equal(c.want) {
			t.Errorf("ParseArg(%q): got %s=%v, want %s=%v", c.in, name, v, c.name, c.want)
		}
	}
	for _, in := range []string{"", "novalue", "=5"} {
		if _, _, err := ParseArg(in); err == nil {
			t.Errorf("ParseArg(%q): want error", in)
		}
	}
}

func TestFlagValue(t *testing.T) {
	var f FlagValue
	if f.String() != "" {
		t.Errorf("empty flag String: %q", f.String())
	}
	for _, arg := range []string{"delta_db=6", "env=pavement", "delta_db=9.5"} {
		if err := f.Set(arg); err != nil {
			t.Fatal(err)
		}
	}
	want := `{"delta_db":9.5,"env":"pavement"}` // last set wins
	if f.String() != want {
		t.Errorf("flag map: got %s, want %s", f.String(), want)
	}
	if err := f.Set("malformed"); err == nil {
		t.Error("malformed arg accepted")
	}
}

// FuzzMapCanonical proves the canonical encoding is a fixed point: any JSON
// object that decodes as a Map re-encodes to bytes that decode and re-encode
// to themselves, regardless of the input's key order, spacing, or number
// spelling.
func FuzzMapCanonical(f *testing.F) {
	f.Add(`{"b":1,"a":2}`)
	f.Add(`{"a": 6.0, "z": "grass", "m": "6"}`)
	f.Add(`{}`)
	f.Add(`{"x":-0.25,"y":1e3}`)
	f.Add(`{"dup":1,"dup":2}`)
	f.Fuzz(func(t *testing.T, in string) {
		var m Map
		if err := json.Unmarshal([]byte(in), &m); err != nil {
			return // not a valid params object — out of scope
		}
		if m.Validate() != nil {
			return
		}
		c1 := m.Canonical()
		var back Map
		if err := json.Unmarshal(c1, &back); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", c1, err)
		}
		c2 := back.Canonical()
		if string(c1) != string(c2) {
			t.Fatalf("canonical not a fixed point: %s -> %s", c1, c2)
		}
		if !m.Equal(back) {
			t.Fatalf("round trip changed the map: %s vs %s", c1, c2)
		}
	})
}
