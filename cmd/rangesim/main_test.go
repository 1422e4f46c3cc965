package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/measure"
)

func TestRunGridCampaign(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-layout", "grid", "-nodes", "9", "-rounds", "1", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# rangesim env=grass") {
		t.Errorf("missing header: %s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 5 {
		t.Errorf("too few output lines: %d", len(lines))
	}
	// Data lines must be parseable csv with 4 fields.
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if got := len(strings.Split(l, ",")); got != 4 {
			t.Fatalf("line %q has %d fields, want 4", l, got)
		}
	}
}

func TestRunWritesPositions(t *testing.T) {
	dir := t.TempDir()
	pos := filepath.Join(dir, "pos.csv")
	var out strings.Builder
	err := run([]string{"-layout", "grid", "-nodes", "4", "-rounds", "1", "-positions", pos}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pos)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 { // header + 4 nodes
		t.Errorf("positions file has %d lines, want 5:\n%s", len(lines), data)
	}
}

func TestRunLayoutsAndErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-layout", "moon"}, &out); err == nil {
		t.Error("want error for unknown layout")
	}
	if err := run([]string{"-env", "vacuum"}, &out); err == nil || err.Error() != `unknown environment "vacuum"` {
		t.Errorf("unknown environment: error %v", err)
	}
	for _, d := range []string{"NaN", "-5"} {
		if err := run([]string{"-maxdist", d}, &out); !errors.Is(err, measure.ErrMaxRange) {
			t.Errorf("-maxdist %s: error %v, want measure.ErrMaxRange", d, err)
		}
	}
	if err := run([]string{"-layout", "random", "-nodes", "5", "-rounds", "1", "-env", "pavement"}, &out); err != nil {
		t.Errorf("random layout failed: %v", err)
	}
}

func TestEnvironmentNames(t *testing.T) {
	for _, name := range []string{"grass", "pavement", "urban", "wooded"} {
		var out strings.Builder
		if err := run([]string{"-env", name, "-nodes", "2", "-rounds", "1"}, &out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.HasPrefix(out.String(), "# rangesim env="+name+" ") {
			t.Errorf("-env %s: header %q", name, strings.SplitN(out.String(), "\n", 2)[0])
		}
	}
}
