package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"resilientloc/internal/core"
	"resilientloc/internal/eval"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
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

// TestRunDistributedEndToEnd: -algo distributed on a fully measured 3×3
// grid aligns every node to the root's frame, and the same seed gives the
// same bytes.
func TestRunDistributedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	meas := filepath.Join(dir, "m.csv")
	var data strings.Builder
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			dx, dy := float64(i%3-j%3)*10, float64(i/3-j/3)*10
			fmt.Fprintf(&data, "%d,%d,%.4f\n", i, j, math.Hypot(dx, dy))
		}
	}
	if err := os.WriteFile(meas, []byte(data.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for k := range outs {
		var out strings.Builder
		if err := run([]string{"-algo", "distributed", "-measurements", meas, "-root", "4", "-seed", "7"}, &out); err != nil {
			t.Fatal(err)
		}
		outs[k] = out.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("same seed, different output:\n%s---\n%s", outs[0], outs[1])
	}
	if !strings.HasPrefix(outs[0], "# distributed n=9 root=4 aligned=9 ") {
		t.Errorf("unexpected output header: %s", outs[0])
	}
	lines := strings.Split(strings.TrimSpace(outs[0]), "\n")
	if len(lines) != 11 { // header + column header + 9 nodes
		t.Errorf("got %d lines, want 11:\n%s", len(lines), outs[0])
	}
}

// TestRunMDSEndToEnd: -algo mds and -algo mdsmap on exact distances of a
// fully measured 3×3 grid recover the grid up to a rigid motion, and the
// same input gives the same bytes. The CLI prints 4 decimals, so its output
// is held to 1e-4; the solver behind it, on the same parsed input, to 1e-9.
func TestRunMDSEndToEnd(t *testing.T) {
	truth := make([]geom.Point, 9)
	for i := range truth {
		truth[i] = geom.Pt(float64(i%3)*10, float64(i/3)*10)
	}
	var data strings.Builder
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			fmt.Fprintf(&data, "%d,%d,%s\n", i, j, strconv.FormatFloat(truth[i].Dist(truth[j]), 'g', -1, 64))
		}
	}
	meas := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(meas, []byte(data.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := readMeasurements(strings.NewReader(data.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo, header string
		solve        func(*measure.Set) ([]geom.Point, error)
	}{
		{"mds", "# classical-mds n=9", core.SolveClassicalMDS},
		{"mdsmap", "# mds-map n=9", core.SolveMDSMap},
	} {
		var outs [2]string
		for k := range outs {
			var out strings.Builder
			if err := run([]string{"-algo", c.algo, "-measurements", meas}, &out); err != nil {
				t.Fatalf("%s: %v", c.algo, err)
			}
			outs[k] = out.String()
		}
		if outs[0] != outs[1] {
			t.Fatalf("%s: same input, different output:\n%s---\n%s", c.algo, outs[0], outs[1])
		}
		lines := strings.Split(strings.TrimSpace(outs[0]), "\n")
		if lines[0] != c.header || len(lines) != 11 { // header + column header + 9 nodes
			t.Fatalf("%s: want header %q and 11 lines:\n%s", c.algo, c.header, outs[0])
		}
		printed := make([]geom.Point, len(truth))
		for i, line := range lines[2:] {
			var id int
			if _, err := fmt.Sscanf(line, "%d,%g,%g", &id, &printed[i].X, &printed[i].Y); err != nil || id != i {
				t.Fatalf("%s: bad position line %q: %v", c.algo, line, err)
			}
		}
		pts, err := c.solve(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			pts []geom.Point
			tol float64
		}{{printed, 1e-4}, {pts, 1e-9}} {
			fit, err := eval.Fit(f.pts, truth)
			if err != nil {
				t.Fatal(err)
			}
			if fit.MaxError > f.tol {
				t.Errorf("%s: max error %g after rigid fit, want ≤ %g", c.algo, fit.MaxError, f.tol)
			}
		}
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
