// Command localize reads a distance-measurement CSV (src,dst,distance[,weight])
// and computes node positions with one of the paper's algorithms.
//
// Usage:
//
//	localize -algo lss|multilat|mds|mdsmap|distributed
//	         [-measurements FILE] [-anchors FILE] [-dmin D] [-root N] [-seed S]
//
// With -algo multilat an anchors file (id,x,y) is required; the output is in
// the anchors' absolute frame. All other algorithms emit a relative map.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"resilientloc/internal/core"
	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "localize:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("localize", flag.ContinueOnError)
	algo := fs.String("algo", "lss", "algorithm: lss, multilat, mds, mdsmap, distributed")
	measFile := fs.String("measurements", "-", "measurement CSV file, '-' for stdin")
	anchorFile := fs.String("anchors", "", "anchor CSV file (id,x,y); required for multilat")
	dmin := fs.Float64("dmin", 0, "minimum node spacing soft constraint for lss/distributed, meters (0 disables)")
	root := fs.Int("root", 0, "root node for distributed alignment")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *algo {
	case "lss", "mds", "mdsmap", "multilat", "distributed":
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if *algo == "multilat" && *anchorFile == "" {
		return fmt.Errorf("multilat requires -anchors")
	}

	var in io.Reader = os.Stdin
	if *measFile != "-" {
		f, err := os.Open(*measFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	set, err := readMeasurements(in)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	switch *algo {
	case "lss":
		res, err := core.SolveLSS(set, core.DefaultLSSConfig(*dmin), rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# lss n=%d pairs=%d objective=%.4f\n", set.N(), set.Len(), res.Error)
		writePositions(stdout, res.Positions)
	case "mds":
		pts, err := core.SolveClassicalMDS(set)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# classical-mds n=%d\n", set.N())
		writePositions(stdout, pts)
	case "mdsmap":
		pts, err := core.SolveMDSMap(set)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# mds-map n=%d\n", set.N())
		writePositions(stdout, pts)
	case "multilat":
		anchors, err := readAnchors(*anchorFile)
		if err != nil {
			return err
		}
		res, err := core.SolveMultilateration(set, anchors, core.DefaultMultilatConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# multilat n=%d anchors=%d localized=%d anchors_per_node=%.2f\n",
			set.N(), len(anchors), len(res.Localized), res.AvgAnchorsPerNode)
		writePositionMap(stdout, res.Positions)
	case "distributed":
		cfg := core.DefaultDistributedConfig(*root, *dmin)
		res, err := core.SolveDistributed(set, cfg, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# distributed n=%d root=%d aligned=%d messages=%d\n",
			set.N(), *root, len(res.Localized), res.MessagesSent)
		writePositionMap(stdout, res.Positions)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	return nil
}

// readMeasurements parses src,dst,distance[,weight] CSV lines. Lines
// beginning with '#' are comments. Node count is inferred from the largest
// index.
func readMeasurements(r io.Reader) (*measure.Set, error) {
	type row struct {
		i, j int
		d, w float64
	}
	var rows []row
	maxIdx := 0
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 3 {
			return nil, fmt.Errorf("line %d: want src,dst,distance[,weight], got %q", lineNo, line)
		}
		i, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad src: %w", lineNo, err)
		}
		j, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad dst: %w", lineNo, err)
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad distance: %w", lineNo, err)
		}
		w := 1.0
		if len(parts) >= 4 {
			w, err = strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight: %w", lineNo, err)
			}
		}
		rows = append(rows, row{i, j, d, w})
		if i > maxIdx {
			maxIdx = i
		}
		if j > maxIdx {
			maxIdx = j
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no measurements found")
	}
	set, err := measure.NewSet(maxIdx + 1)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := set.Add(r.i, r.j, r.d, r.w); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// readAnchors parses id,x,y CSV lines.
func readAnchors(path string) (map[int]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	anchors := make(map[int]geom.Point)
	lineOf := make(map[int]int) // the line that gave each anchor id
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("anchors line %d: want id,x,y, got %q", lineNo, line)
		}
		id, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("anchors line %d: bad id: %w", lineNo, err)
		}
		if prev, ok := lineOf[id]; ok {
			return nil, fmt.Errorf("anchors line %d: anchor %d repeats line %d", lineNo, id, prev)
		}
		lineOf[id] = lineNo
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("anchors line %d: bad x: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("anchors line %d: bad y: %w", lineNo, err)
		}
		anchors[id] = geom.Pt(x, y)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("no anchors found in %s", path)
	}
	return anchors, nil
}

func writePositions(w io.Writer, pts []geom.Point) {
	fmt.Fprintln(w, "# id,x,y")
	for i, p := range pts {
		fmt.Fprintf(w, "%d,%.4f,%.4f\n", i, p.X, p.Y)
	}
}

func writePositionMap(w io.Writer, pts map[int]geom.Point) {
	fmt.Fprintln(w, "# id,x,y")
	ids := make([]int, 0, len(pts))
	for i := range pts {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, i := range ids {
		fmt.Fprintf(w, "%d,%.4f,%.4f\n", i, pts[i].X, pts[i].Y)
	}
}
