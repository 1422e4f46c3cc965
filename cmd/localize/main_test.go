package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadMeasurements(t *testing.T) {
	in := strings.NewReader(`# comment
0,1,10.5
1,2,8.25,0.5

2,0,12.0
`)
	set, err := readMeasurements(in)
	if err != nil {
		t.Fatal(err)
	}
	if set.N() != 3 || set.Len() != 3 {
		t.Fatalf("N=%d Len=%d, want 3/3", set.N(), set.Len())
	}
	m, ok := set.Get(1, 2)
	if !ok || m.Distance != 8.25 || m.Weight != 0.5 {
		t.Errorf("pair (1,2) = %+v, ok=%v", m, ok)
	}
}

func TestReadMeasurementsErrors(t *testing.T) {
	cases := []string{
		"",        // empty
		"0,1",     // too few fields
		"x,1,5",   // bad src
		"0,y,5",   // bad dst
		"0,1,z",   // bad distance
		"0,1,5,w", // bad weight
		"0,0,5",   // self pair (rejected by measure)
		"0,1,-2",  // negative distance
	}
	for _, c := range cases {
		if _, err := readMeasurements(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: want error", c)
		}
	}
}

func TestReadAnchors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anchors.csv")
	if err := os.WriteFile(path, []byte("# id,x,y\n0,1.5,2.5\n3,-1,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	anchors, err := readAnchors(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) != 2 {
		t.Fatalf("got %d anchors", len(anchors))
	}
	if p := anchors[3]; p.X != -1 || p.Y != 4 {
		t.Errorf("anchor 3 = %v", p)
	}
	if _, err := readAnchors(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("want error for missing file")
	}
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAnchors(bad); err == nil {
		t.Error("want error for malformed anchors")
	}
	// A repeated id is an error naming both lines, not a silent overwrite.
	dup := filepath.Join(dir, "dup.csv")
	if err := os.WriteFile(dup, []byte("# id,x,y\n0,0,0\n1,10,0\n2,0,10\n3,10,10\n0,500,500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAnchors(dup); err == nil || !strings.Contains(err.Error(), "anchors line 6: anchor 0 repeats line 2") {
		t.Errorf("repeated anchor id: error %v", err)
	}
}

func TestRunLSSEndToEnd(t *testing.T) {
	dir := t.TempDir()
	meas := filepath.Join(dir, "m.csv")
	// A unit square with all six exact distances.
	data := `0,1,10
1,2,10
2,3,10
3,0,10
0,2,14.1421
1,3,14.1421
`
	if err := os.WriteFile(meas, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-algo", "lss", "-measurements", meas, "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# lss n=4") {
		t.Errorf("unexpected output header: %s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 { // header + column header + 4 nodes
		t.Errorf("got %d lines, want 6:\n%s", len(lines), out.String())
	}
}

func TestRunMultilatRequiresAnchors(t *testing.T) {
	dir := t.TempDir()
	meas := filepath.Join(dir, "m.csv")
	if err := os.WriteFile(meas, []byte("0,1,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-algo", "multilat", "-measurements", meas}, &out); err == nil {
		t.Error("want error without anchors")
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-algo", "nope", "-measurements", "-"}, &out); err == nil {
		t.Error("want error for unknown algorithm")
	}
}
