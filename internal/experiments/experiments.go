// Package experiments regenerates every figure of the paper's evaluation:
// the ranging figures of Section 3 (Figures 2–10 and the §3.6.2 maximum-
// range analysis) and the localization figures of Section 4 (Figures 11–25).
// Each experiment is a deterministic function of its seed and returns a
// Result that records the paper's claim next to the measured reproduction.
// cmd/experiments prints each Result as a block: the figure's title, the
// paper's claim, one line per measured metric and per series, and its note
// if it has one; with -json it prints the Results as one JSON array.
//
// Every experiment executes through the engine campaign path: an Experiment
// is a builder of an engine.Campaign[*Result] whose trials carry the
// figure's Monte Carlo structure (one trial for single-shot figures, one
// trial per sweep point or optimizer descent for the ensemble figures) and
// whose Finalize assembles the Result from the shard-merged report. Trials
// report only through t.Record and t.RecordSeries, as scenario trials do,
// so every figure's values serialize and any figure can cross a trial
// range; a one-trial figure's Finalize rebuilds its Result from those
// values and a static header (see singleTrial). Each trial seeds from
// engine.DeriveSeed, so figure output is byte-identical at every worker
// count (pinned by the golden tests).
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/params"
	"resilientloc/internal/stats"
)

// Metric is one named measured quantity.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// SeriesPoint is one (x, y) sample of a figure's data series.
type SeriesPoint struct {
	X, Y float64
}

// Series is a named data series (one curve of a figure).
type Series struct {
	Name   string
	Points []SeriesPoint
}

// Result is the outcome of one experiment.
type Result struct {
	ID         string // e.g. "fig06"
	Title      string
	PaperClaim string // what the paper reports, with its numbers
	Metrics    []Metric
	Series     []Series
	Notes      string
}

// Add appends a metric.
func (r *Result) Add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Get returns the named metric's value and whether it exists.
func (r *Result) Get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Render formats the result as an indented text block for the harness.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "  paper: %s\n", r.PaperClaim)
	for _, m := range r.Metrics {
		if m.Unit != "" {
			fmt.Fprintf(&b, "  %-42s %10.3f %s\n", m.Name, m.Value, m.Unit)
		} else {
			fmt.Fprintf(&b, "  %-42s %10.3f\n", m.Name, m.Value)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  series %s:", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " (%.3g, %.4g)", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Notes)
	}
	return b.String()
}

// Experiment is a named, seedable reproduction of one paper figure,
// expressed as an engine campaign.
type Experiment struct {
	ID string
	// Params declares the experiment's swept axes beyond the seed, if any.
	// Most figures are parameter-free reproductions — a fixed operating
	// point is their definition — and leave this nil, which makes any
	// params on their spec an error.
	Params params.Schema
	// Campaign builds the experiment's engine campaign for a seed at a
	// resolved operating point (every declared parameter present; see
	// params.Schema.Resolve). Parameter-free figures ignore p. The
	// campaign's scenario is named after the experiment ID, which is what
	// the result cache keys on.
	Campaign func(seed int64, p params.Map) engine.Campaign[*Result]
}

// RunWorkers executes the experiment at its default operating point with an
// explicit engine worker count (0 = GOMAXPROCS). Output is identical at
// every worker count.
func (e Experiment) RunWorkers(seed int64, workers int) (*Result, error) {
	p, err := e.Params.Resolve(nil)
	if err != nil {
		return nil, err
	}
	runner, err := engine.NewRunner(engine.Config{Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	res, _, err := engine.RunCampaign(runner, e.Campaign(seed, p))
	return res, err
}

// figure is a one-trial figure's static header, which Finalize stamps on
// the Result it rebuilds from the trial's recorded values.
type figure struct {
	id, title, claim string
	regression       regression
}

// regression is a note rule over a figure's rebuilt metrics: when both are
// present and after exceeds before, the figure notes the regression.
type regression struct{ before, after, note string }

// singleTrial wraps a one-shot figure computation as a 1-trial campaign.
// The trial reports through t.Record and recordSeries, and Finalize
// (figure.result) reads each value back as its one-sample aggregate.
func singleTrial(f figure, run engine.TrialFunc) engine.Campaign[*Result] {
	return engine.Campaign[*Result]{
		Scenario: engine.Scenario{
			Name:      f.id,
			Trials:    1,
			MaxTrials: 1,
			Run:       run,
		},
		FixedTrials: true,
		Finalize:    f.result,
	}
}

// seriesX and seriesY suffix the two halves of a recorded figure series.
const seriesX, seriesY = " [x]", " [y]"

// recordSeries reports one figure series as its X and Y coordinates.
func recordSeries(t *engine.T, name string, xs, ys []float64) {
	t.RecordSeries(name+seriesX, xs)
	t.RecordSeries(name+seriesY, ys)
}

// metricUnits gives the unit of every metric a one-trial figure records.
// A name missing here is a Finalize error, never a guessed unit.
var metricUnits = map[string]string{
	"measurements": "", "all measurements": "", "bidirectional pairs": "", "fraction |error| > 1 m": "",
	"raw fraction |error| > 1 m": "", "filtered fraction |error| > 1 m": "", "all fraction |error| > 1 m": "",
	"bidirectional fraction |error| > 1 m": "", "underestimate share of large errors": "",
	"fraction within ±30 cm": "", "large-error fraction, nearest bin": "", "large-error fraction, farthest bin": "",
	"clean chirps detected (of 4)": "", "clean false positives": "", "noisy chirps detected (of 4)": "",
	"noisy false positives": "", "non-anchors localized": "", "of non-anchors": "", "localized fraction": "",
	"anchors per node": "", "measured pairs": "", "pairs within 22 m": "", "total pairs": "",
	"simulated distances added": "", "nodes aligned": "", "of nodes": "", "pairwise transforms": "",
	"messages sent": "", "final objective E": "",

	"median |error|": "m", "mean error": "m", "max |error|": "m", "raw median |error|": "m",
	"filtered median |error|": "m", "all max |error|": "m", "bidirectional max |error|": "m",
	"error without consistency check": "m", "error with consistency check": "m", "average localization error": "m",
	"worst localization error": "m", "average error of localized": "m", "worst error": "m",
	"average without worst 3": "m", "average error": "m", "average without worst 5": "m", "max error": "m",
	"average error of aligned": "m", "max error of aligned": "m",
}

// result rebuilds the figure from its campaign's report: metrics in
// first-record order with their units from metricUnits, each series from
// its recorded X and Y, then the regression note. A value is its
// aggregate's mean over the trials that recorded it, so a one-trial figure
// reports its trial's value bit for bit: stats.Online's first Add is exact,
// save that it turns −0 into +0, which no figure records at the golden
// seeds. A metric recorded only as NaN has no samples and reads NaN. A name
// recorded more often than there are trials is an error, because the mean
// would blend one trial's values where the trial meant to replace them.
func (f figure) result(rep *engine.Report) (*Result, error) {
	r := &Result{ID: f.id, Title: f.title, PaperClaim: f.claim}
	for _, m := range rep.Metrics {
		unit, ok := metricUnits[m.Name]
		if !ok {
			return nil, fmt.Errorf("experiments: %s: metric %q has no known unit", f.id, m.Name)
		}
		if m.Count > int64(rep.Trials) {
			return nil, fmt.Errorf("experiments: %s: metric %q recorded %d times in %d trials", f.id, m.Name, m.Count, rep.Trials)
		}
		v := m.Mean
		if m.Count == 0 {
			v = math.NaN()
		}
		r.Add(m.Name, v, unit)
	}
	for i := 0; i < len(rep.Series); i += 2 {
		xs := rep.Series[i]
		name, ok := strings.CutSuffix(xs.Name, seriesX)
		if !ok || i+1 == len(rep.Series) || rep.Series[i+1].Name != name+seriesY || len(rep.Series[i+1].Mean) != len(xs.Mean) {
			return nil, fmt.Errorf("experiments: %s: series %q is not recorded as X and Y", f.id, xs.Name)
		}
		ys := rep.Series[i+1]
		if xs.Trials > int64(rep.Trials) || ys.Trials > int64(rep.Trials) {
			return nil, fmt.Errorf("experiments: %s: series %q recorded more than once per trial", f.id, name)
		}
		var pts []SeriesPoint
		for j := range xs.Mean {
			pts = append(pts, SeriesPoint{X: xs.Mean[j], Y: ys.Mean[j]})
		}
		r.Series = append(r.Series, Series{Name: name, Points: pts})
	}
	before, okBefore := r.Get(f.regression.before)
	if after, ok := r.Get(f.regression.after); ok && okBefore && after > before {
		r.Notes = f.regression.note
	}
	return r, nil
}

// trialName is the name under which a trial of an ensemble figure records
// its own value of name, so that name's aggregate holds the one trial's
// sample.
func trialName(name string, trial int) string { return fmt.Sprintf("%s #%d", name, trial) }

// trialValues reads the values trials [lo, hi) recorded under trialName.
// Each name must hold exactly one sample, whose mean is then the trial's
// value (see figure.result on −0).
func trialValues(rep *engine.Report, name string, lo, hi int) ([]float64, error) {
	vs := make([]float64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		m, _ := rep.Metric(trialName(name, k))
		if m.Count != 1 {
			return nil, fmt.Errorf("experiments: %s: %q holds %d samples, want 1", rep.Scenario, trialName(name, k), m.Count)
		}
		vs = append(vs, m.Mean)
	}
	return vs, nil
}

// trialRows reads the series trials [lo, hi) recorded under trialName; each
// must come from exactly one trial.
func trialRows(rep *engine.Report, name string, lo, hi int) ([][]float64, error) {
	rows := make([][]float64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		want := trialName(name, k)
		i := slices.IndexFunc(rep.Series, func(s engine.SeriesSummary) bool { return s.Name == want })
		if i < 0 || rep.Series[i].Trials != 1 {
			return nil, fmt.Errorf("experiments: %s: series %q is not one trial's", rep.Scenario, want)
		}
		rows = append(rows, rep.Series[i].Mean)
	}
	return rows, nil
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig02", Campaign: fig02Campaign},
		{ID: "fig04", Campaign: fig04Campaign},
		{ID: "fig06", Campaign: fig06Campaign},
		{ID: "fig07", Campaign: fig07Campaign},
		{ID: "fig08", Campaign: fig08Campaign},
		{ID: "fig10", Campaign: fig10Campaign},
		{
			ID:       "maxrange",
			Campaign: maxRangeCampaign,
			Params: params.Schema{
				{Name: "rounds", Kind: params.Int, Default: params.Num(40), Min: 1, Max: 400,
					Help: "measurement attempts per sweep point"},
			},
		},
		{ID: "fig11", Campaign: fig11Campaign},
		{ID: "fig12", Campaign: fig12Campaign},
		{ID: "fig14", Campaign: fig14Campaign},
		{ID: "fig16", Campaign: fig16Campaign},
		{ID: "fig18", Campaign: fig18Campaign},
		{ID: "fig19", Campaign: fig19Campaign},
		{ID: "fig20", Campaign: fig20Campaign},
		{ID: "fig21", Campaign: fig21Campaign},
		{ID: "fig22", Campaign: fig22Campaign},
		{ID: "fig23", Campaign: fig23Campaign},
		{ID: "fig24", Campaign: fig24Campaign},
		{ID: "fig25", Campaign: fig25Campaign},
	}
}

var (
	registryOnce sync.Once
	registry     map[string]Experiment
)

// Find returns the experiment with the given ID via a map-backed registry.
func Find(id string) (Experiment, bool) {
	registryOnce.Do(func() {
		all := All()
		registry = make(map[string]Experiment, len(all))
		for _, e := range all {
			registry[e.ID] = e
		}
	})
	e, ok := registry[id]
	return e, ok
}

// recordErrorStats reports the standard error-sample metrics every ranging
// figure shares: sample size, robust central error, extremes, and the
// large-error population split.
func recordErrorStats(t *engine.T, errs []float64) error {
	s, err := stats.Summarize(errs)
	if err != nil {
		return err
	}
	t.Record("measurements", float64(s.N))
	t.Record("median |error|", s.AbsMed)
	t.Record("mean error", s.Mean)
	t.Record("max |error|", math.Max(math.Abs(s.Min), math.Abs(s.Max)))
	t.Record("fraction |error| > 1 m", s.Frac1m)
	var under, over int
	for _, e := range errs {
		if e < -1 {
			under++
		} else if e > 1 {
			over++
		}
	}
	if under+over > 0 {
		t.Record("underestimate share of large errors", float64(under)/float64(under+over))
	}
	return nil
}

// recordHistogram bins errs and records the (bin center, count) series.
func recordHistogram(t *engine.T, name string, errs []float64, lo, hi float64, bins int) error {
	h, err := stats.NewHistogram(lo, hi, bins)
	if err != nil {
		return err
	}
	h.AddAll(errs)
	xs, ys := make([]float64, bins), make([]float64, bins)
	for i, c := range h.Counts {
		xs[i], ys[i] = h.BinCenter(i), float64(c)
	}
	recordSeries(t, name, xs, ys)
	return nil
}
