package doclint

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goRunLine matches a README command line running one of the repository's
// binaries, capturing the binary's name and its arguments.
var goRunLine = regexp.MustCompile(`go run \./cmd/([\w-]+)(.*)`)

// usageFlag matches a flag line of a binary's -h output (flag.PrintDefaults
// indents each flag by two spaces).
var usageFlag = regexp.MustCompile(`(?m)^  -([\w-]+)`)

// TestReadmeFlagsExist checks README.md against the binaries it documents:
// every -flag on a `go run ./cmd/<name>` line of a code block, continuation
// lines included, must be defined by that binary, as its -h output lists
// it, and -h itself must succeed. A renamed or removed flag otherwise leaves the README stale with no
// signal.
func TestReadmeFlagsExist(t *testing.T) {
	root := repoRoot(t)
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	uses := readmeFlags(string(readme))
	if len(uses) == 0 {
		t.Fatal("README.md has no `go run ./cmd/...` lines in its code blocks")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	defined := map[string]map[string]bool{}
	for _, u := range uses {
		if defined[u.cmd] == nil {
			// A help request is a successful run: it prints the flag set,
			// exits 0 and reports no error.
			out, err := exec.Command(filepath.Join(bin, u.cmd), "-h").CombinedOutput()
			if err != nil || strings.Contains(string(out), flag.ErrHelp.Error()) {
				t.Fatalf("cmd/%s -h: %v, want exit 0 with no error line:\n%s", u.cmd, err, out)
			}
			defined[u.cmd] = map[string]bool{}
			for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
				defined[u.cmd][m[1]] = true
			}
			if len(defined[u.cmd]) == 0 {
				t.Fatalf("cmd/%s -h lists no flags:\n%s", u.cmd, out)
			}
		}
		if !defined[u.cmd][u.flag] {
			t.Errorf("README.md:%d: cmd/%s has no -%s flag", u.line, u.cmd, u.flag)
		}
	}
}

// flagUse is one -flag a README command line passes to a binary.
type flagUse struct {
	line      int // 1-based line of the command's first line
	cmd, flag string
}

// readmeFlags returns every flag passed to a `go run ./cmd/<name>` command
// inside the fenced code blocks of a markdown document. A command continues
// onto the next line after a trailing backslash; its arguments end at a
// shell comment, pipe, redirection, or command separator.
func readmeFlags(doc string) []flagUse {
	var uses []flagUse
	lines := strings.Split(doc, "\n")
	inBlock := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		start := i
		cmdLine := lines[i]
		for strings.HasSuffix(cmdLine, `\`) && i+1 < len(lines) {
			i++
			cmdLine = strings.TrimSuffix(cmdLine, `\`) + " " + lines[i]
		}
		m := goRunLine.FindStringSubmatch(cmdLine)
		if m == nil {
			continue
		}
		args := m[2]
		if cut := strings.IndexAny(args, "#|&;>"); cut >= 0 {
			args = args[:cut]
		}
		for _, a := range strings.Fields(args) {
			if len(a) < 2 || a[0] != '-' {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
			uses = append(uses, flagUse{line: start + 1, cmd: m[1], flag: name})
		}
	}
	return uses
}
