// Package params is the typed parameter surface of the scenario and
// experiment registries: a Map of named Values rides on a job spec
// (spec.JobSpec.Params) to select one operating point of a parameterized
// workload, and a Schema declares which names a factory accepts, their
// types, defaults, and bounds.
//
// Values encode canonically: a Map marshals with sorted keys (Go's
// encoding/json map behavior) and every number in its shortest round-trip
// form, so any two JSON spellings of the same operating point — key order,
// whitespace, "6.0" versus "6" — decode and re-encode to identical bytes.
// That property is what lets spec.Hash and cache.Key content-address the
// exact operating point.
package params

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind is a parameter's declared type.
type Kind int

const (
	// Float accepts any finite JSON number.
	Float Kind = iota + 1
	// Int accepts a JSON number with zero fractional part.
	Int
	// String accepts a JSON string, constrained by the schema's Enum.
	String
)

// String implements fmt.Stringer for schema listings.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is one parameter value: a JSON number or string. The zero Value is
// invalid (it marshals to an error), so absent and present-but-zero
// parameters can never be confused.
type Value struct {
	kind Kind // Float or String (Int is a schema-level constraint)
	num  float64
	str  string
}

// Num returns a numeric Value.
func Num(f float64) Value { return Value{kind: Float, num: f} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: String, str: s} }

// Kind reports the value's JSON shape: Float for any number, or String. It never reports Int — integrality is a schema constraint, not a
// wire distinction.
func (v Value) Kind() Kind { return v.kind }

// Float64 returns the numeric value (0 for non-numbers).
func (v Value) Float64() float64 { return v.num }

// Int returns the numeric value truncated to int (0 for non-numbers).
func (v Value) Int() int { return int(v.num) }

// Str returns the string value ("" for non-strings).
func (v Value) Str() string { return v.str }

// String renders the value the way the canonical encoding does.
func (v Value) String() string {
	switch v.kind {
	case Float:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case String:
		return v.str
	}
	return "<invalid>"
}

// MarshalJSON encodes the value in its canonical form. Invalid (zero) and
// non-finite values are errors, never bytes.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case Float:
		if math.IsNaN(v.num) || math.IsInf(v.num, 0) {
			return nil, fmt.Errorf("params: non-finite number %v", v.num)
		}
		return json.Marshal(v.num)
	case String:
		return json.Marshal(v.str)
	}
	return nil, fmt.Errorf("params: invalid zero Value")
}

// UnmarshalJSON decodes a JSON number or string; bools, null, objects, and
// arrays are rejected.
func (v *Value) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("params: %w", err)
	}
	switch t := tok.(type) {
	case json.Number:
		f, err := strconv.ParseFloat(t.String(), 64)
		if err != nil {
			return fmt.Errorf("params: number %q out of range", t.String())
		}
		*v = Num(f)
	case string:
		*v = Str(t)
	default:
		return fmt.Errorf("params: value must be a number or string (got %s)", strings.TrimSpace(string(b)))
	}
	return nil
}

// Equal reports value equality (numbers compare as float64 bits via ==, so
// 6 and 6.0 are equal and NaN is never equal to anything).
func (v Value) Equal(o Value) bool { return v == o }

// Map is a set of named parameter values. A nil or empty Map means "no
// parameters"; both encode to nothing under omitempty, which is what keeps
// param-less job specs hashing exactly as they did before params existed.
type Map map[string]Value

// Canonical returns the map's canonical encoding: compact JSON with sorted
// keys and shortest-form numbers. It panics on invalid or non-finite values
// — validate first (Schema.Validate or Map.Validate).
func (m Map) Canonical() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("params: canonical: %v", err))
	}
	return b
}

// Validate checks every value is marshalable (valid kind, finite number),
// independent of any schema.
func (m Map) Validate() error {
	for _, name := range m.Names() {
		if _, err := m[name].MarshalJSON(); err != nil {
			return fmt.Errorf("params: %s: %w", name, err)
		}
	}
	return nil
}

// Names returns the parameter names in sorted order.
func (m Map) Names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone returns an independent copy (nil in, nil out).
func (m Map) Clone() Map {
	if m == nil {
		return nil
	}
	out := make(Map, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Equal reports whether two maps hold the same names and values.
func (m Map) Equal(o Map) bool {
	if len(m) != len(o) {
		return false
	}
	for k, v := range m {
		if ov, ok := o[k]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Float returns the named numeric value (0 when absent). Factories read
// resolved maps — defaults already filled — so absence is a programming
// error, not a runtime condition.
func (m Map) Float(name string) float64 { return m[name].Float64() }

// Int returns the named numeric value truncated to int (0 when absent).
func (m Map) Int(name string) int { return m[name].Int() }

// Str returns the named string ("" when absent).
func (m Map) Str(name string) string { return m[name].str }

// Spec declares one parameter a factory accepts.
type Spec struct {
	// Name is the wire name, e.g. "delta_db".
	Name string
	// Kind is the declared type. Numeric kinds (Float, Int) enforce
	// [Min, Max]; String enforces Enum membership.
	Kind Kind
	// Default is the value used when the parameter is omitted. It must
	// itself satisfy the spec's constraints.
	Default Value
	// Min, Max bound numeric parameters (inclusive). Required for Float and
	// Int specs; ignored otherwise.
	Min, Max float64
	// Enum lists the admissible values of a String parameter.
	Enum []string
	// Help is the one-line description printed by -list.
	Help string
}

// check validates one value against the spec.
func (p Spec) check(v Value) error {
	switch p.Kind {
	case Float, Int:
		if v.Kind() != Float {
			return fmt.Errorf("want a number, got %s %v", v.Kind(), v)
		}
		f := v.Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite number")
		}
		if p.Kind == Int && f != math.Trunc(f) {
			return fmt.Errorf("want an integer, got %v", f)
		}
		if f < p.Min || f > p.Max {
			return fmt.Errorf("value %v out of range [%g, %g]", f, p.Min, p.Max)
		}
	case String:
		if v.Kind() != String {
			return fmt.Errorf("want a string, got %s %v", v.Kind(), v)
		}
		for _, e := range p.Enum {
			if v.Str() == e {
				return nil
			}
		}
		return fmt.Errorf("value %q not one of %s", v.Str(), strings.Join(p.Enum, "|"))
	default:
		return fmt.Errorf("schema bug: invalid kind %d", int(p.Kind))
	}
	return nil
}

// Schema is an ordered list of parameter specs — the declaration order is
// the display order.
type Schema []Spec

// Lookup returns the spec with the given name.
func (s Schema) Lookup(name string) (Spec, bool) {
	for _, p := range s {
		if p.Name == name {
			return p, true
		}
	}
	return Spec{}, false
}

// SelfCheck validates the schema's own declaration: unique names, valid
// kinds and bounds, defaults that satisfy their own constraints. Registry
// well-formedness tests call it for every factory.
func (s Schema) SelfCheck() error {
	seen := make(map[string]bool, len(s))
	for _, p := range s {
		if p.Name == "" {
			return fmt.Errorf("params: schema entry with no name")
		}
		if seen[p.Name] {
			return fmt.Errorf("params: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Kind {
		case Float, Int:
			if p.Min > p.Max {
				return fmt.Errorf("params: %s: inverted bounds [%g, %g]", p.Name, p.Min, p.Max)
			}
		case String:
			if len(p.Enum) == 0 {
				return fmt.Errorf("params: %s: string parameter with no enum", p.Name)
			}
		default:
			return fmt.Errorf("params: %s: invalid kind %d", p.Name, int(p.Kind))
		}
		if err := p.check(p.Default); err != nil {
			return fmt.Errorf("params: %s: default: %w", p.Name, err)
		}
	}
	return nil
}

// Validate checks a user-supplied map against the schema: unknown names are
// rejected by name (listing the accepted ones), and every present value must
// satisfy its spec's type and bounds. Absent parameters are fine — Resolve
// fills defaults. An empty schema declares a fixed operating point, which
// takes no parameters at all.
func (s Schema) Validate(m Map) error {
	if len(s) == 0 && len(m) > 0 {
		return fmt.Errorf("params: takes no parameters (given: %s)", strings.Join(m.Names(), ", "))
	}
	for _, name := range m.Names() {
		p, ok := s.Lookup(name)
		if !ok {
			known := make([]string, len(s))
			for i, sp := range s {
				known[i] = sp.Name
			}
			return fmt.Errorf("params: unknown parameter %q (accepted: %s)", name, strings.Join(known, ", "))
		}
		if err := p.check(m[name]); err != nil {
			return fmt.Errorf("params: %s: %w", name, err)
		}
	}
	return nil
}

// Resolve validates m and returns the full operating point: every declared
// parameter present, defaults filled for the omitted ones. The resolved map
// — not the sparse user-supplied one — is what cache keys embed, so a spec
// that spells out a default addresses the same cache entry as one that
// omits it. An empty schema resolves to a nil map, so a fixed point's cache
// key carries no params at all.
func (s Schema) Resolve(m Map) (Map, error) {
	if err := s.Validate(m); err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, nil
	}
	out := make(Map, len(s))
	for _, p := range s {
		if v, ok := m[p.Name]; ok {
			out[p.Name] = v
		} else {
			out[p.Name] = p.Default
		}
	}
	return out, nil
}

// Fprint writes the schema for -list output, one line per parameter in
// declaration order, each prefixed by indent: name, kind, default, the
// admissible range ("[0, 18]" for numbers, "grass|pavement|..." for enums)
// and help.
func (s Schema) Fprint(w io.Writer, indent string) {
	for _, p := range s {
		constraint := fmt.Sprintf("[%g, %g]", p.Min, p.Max)
		if p.Kind == String {
			constraint = strings.Join(p.Enum, "|")
		}
		fmt.Fprintf(w, "%s%-16s %-6s default %-10s  %s  %s\n",
			indent, p.Name, p.Kind, p.Default.String(), constraint, p.Help)
	}
}

// ParseArg parses one CLI "name=value" argument. The value is parsed as a
// finite number, else kept as a string, so "true" is the string "true",
// which no schema admits.
func ParseArg(arg string) (string, Value, error) {
	name, raw, ok := strings.Cut(arg, "=")
	if !ok || name == "" {
		return "", Value{}, fmt.Errorf("params: want name=value, got %q", arg)
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return name, Num(f), nil
	}
	return name, Str(raw), nil
}

// FlagValue adapts a Map to the flag package for repeatable -param flags:
//
//	var pf params.FlagValue
//	fs.Var(&pf, "param", "scenario parameter name=value (repeatable)")
type FlagValue struct {
	M Map
}

// String implements flag.Value.
func (f *FlagValue) String() string {
	if f == nil || len(f.M) == 0 {
		return ""
	}
	return string(f.M.Canonical())
}

// Set implements flag.Value: each occurrence adds one name=value pair.
// Setting a name twice keeps the last value, like repeated JSON keys don't.
func (f *FlagValue) Set(arg string) error {
	name, v, err := ParseArg(arg)
	if err != nil {
		return err
	}
	if f.M == nil {
		f.M = make(Map)
	}
	f.M[name] = v
	return nil
}
