package engine

import (
	"context"
	"fmt"
	"sort"

	"resilientloc/internal/stats"
)

// This file is the distributed half of the engine's determinism contract:
// partial execution over a trial sub-range, a serializable aggregate for
// what that sub-range computed, and a merge that reassembles any set of
// sub-ranges covering [0, trials) into byte-for-byte the Report a
// single-process run produces.
//
// Exactness hinges on reproducing the full run's aggregation tree, which is
// "Add samples sequentially within a shard, then Merge shards in ascending
// order". Shards fully covered by a sub-range therefore ship their
// aggregate state (stats.Online moments and quantile-sketch buckets, both
// of which merge exactly); a sub-range whose boundary cuts through a shard
// cannot ship moments — Welford's Merge is not bit-equal to the sequential
// Adds the full run performs inside one shard — so boundary fragments ship
// the raw per-trial samples instead, and the merging side replays them in
// trial order to rebuild the cut shard exactly.

// Partial is the serialized aggregate of one partial run: the trials
// [Lo, Hi) of a (Scenario, Seed, Trials, ShardSize) execution, broken into
// per-shard pieces. Partials whose ranges tile [0, Trials) merge into the
// full run's exact Report via MergePartials.
type Partial struct {
	Scenario  string `json:"scenario"`
	Seed      int64  `json:"seed"`
	Trials    int    `json:"trials"`
	ShardSize int    `json:"shard_size"`
	Lo        int    `json:"lo"`
	Hi        int    `json:"hi"`
	// Retained reports that per-trial values (trial scalars/series) ride
	// along for the campaign's Finalize step; all partials of one job must
	// agree on it.
	Retained bool         `json:"retained,omitempty"`
	Pieces   []ShardPiece `json:"pieces"`
}

// ShardPiece is the intersection of a partial run's range with one
// aggregation shard. A Complete piece covers its whole shard and carries
// serialized aggregate state; an incomplete piece carries the raw per-trial
// records so the merge can replay the cut shard's Adds exactly.
type ShardPiece struct {
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Complete pieces: aggregate state in metric-discovery order.
	Complete bool           `json:"complete,omitempty"`
	Metrics  []MetricState  `json:"metrics,omitempty"`
	Series   []SeriesState  `json:"series,omitempty"`
	Retain   *RetainedState `json:"retain,omitempty"`
	// Incomplete pieces: raw per-trial records in trial order.
	Raw []TrialRecord `json:"raw,omitempty"`
}

// MetricState is one scalar metric's streaming state within a complete
// shard piece: exact Welford moments plus the integer-bucket quantile
// sketch.
type MetricState struct {
	Name    string                `json:"name"`
	Moments stats.Online          `json:"moments"`
	Sketch  *stats.QuantileSketch `json:"sketch"`
}

// SeriesState is one series metric's pointwise streaming state within a
// complete shard piece.
type SeriesState struct {
	Name   string         `json:"name"`
	Trials int64          `json:"trials"`
	Points []stats.Online `json:"points"`
}

// RetainedState carries a complete piece's per-trial values (indexed
// relative to the piece's Lo) for campaigns that finalize from trial data.
// Absent trials are NaN (scalars) or null (series) — exactly the in-memory
// convention — which is why the fields use the NaN-safe stats.F64 wire
// float.
type RetainedState struct {
	Scalars map[string][]stats.F64   `json:"scalars,omitempty"`
	Series  map[string][][]stats.F64 `json:"series,omitempty"`
}

// TrialRecord is one trial's raw recorded samples, in record order, for
// exact replay of a shard the range boundary cut through.
type TrialRecord struct {
	Trial   int            `json:"trial"`
	Scalars []ScalarSample `json:"scalars,omitempty"`
	Series  []SeriesRecord `json:"series,omitempty"`
}

// ScalarSample is one recorded scalar sample.
type ScalarSample struct {
	Name  string    `json:"name"`
	Value stats.F64 `json:"value"`
}

// SeriesRecord is one recorded series sample.
type SeriesRecord struct {
	Name   string      `json:"name"`
	Values []stats.F64 `json:"values"`
}

// pieceBounds lists the shard intersections of [lo, hi): one entry per
// shard the range touches, clipped to the range.
func pieceBounds(lo, hi, shardSize, trials int) [][3]int {
	var out [][3]int // shard, pieceLo, pieceHi
	for si := lo / shardSize; si*shardSize < hi; si++ {
		pLo, pHi := si*shardSize, (si+1)*shardSize
		if pHi > trials {
			pHi = trials
		}
		if pLo < lo {
			pLo = lo
		}
		if pHi > hi {
			pHi = hi
		}
		out = append(out, [3]int{si, pLo, pHi})
	}
	return out
}

// shardBounds returns shard si's full trial range.
func shardBounds(si, shardSize, trials int) (lo, hi int) {
	lo, hi = si*shardSize, (si+1)*shardSize
	if hi > trials {
		hi = trials
	}
	return lo, hi
}

// RunPartial executes only the trials [lo, hi) of the scenario and returns
// their serializable aggregate. The run uses the same worker pool, budget,
// and progress contract as Run (progress totals are hi-lo).
func (r *Runner) RunPartial(s Scenario, lo, hi int) (*Partial, error) {
	return r.RunPartialContext(context.Background(), s, lo, hi)
}

// RunPartialContext is RunPartial with an observability context: under
// tracing it records an engine.run span whose engine.shard children are the
// range's shard pieces (complete pieces and raw boundary fragments alike).
// Like RunContext, the context carries telemetry only — it does not cancel.
func (r *Runner) RunPartialContext(ctx context.Context, s Scenario, lo, hi int) (*Partial, error) {
	trials, err := r.trials(s)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > trials {
		return nil, fmt.Errorf("engine: scenario %s: invalid trial range [%d, %d) of %d trials",
			s.Name, lo, hi, trials)
	}
	aggs, _, err := r.execute(ctx, s, trials, lo, hi, true)
	if err != nil {
		return nil, err
	}
	shardSize := r.cfg.EffectiveShardSize()
	keep := r.cfg.KeepTrialValues
	p := &Partial{
		Scenario: s.Name, Seed: r.cfg.Seed, Trials: trials, ShardSize: shardSize,
		Lo: lo, Hi: hi, Retained: keep,
		Pieces: make([]ShardPiece, len(aggs)),
	}
	for i, agg := range aggs {
		p.Pieces[i] = aggToPiece(agg.lo/shardSize, agg, keep)
	}
	return p, nil
}

// aggToPiece serializes one executed piece: a cut piece ships its raw trial
// records, a complete shard its aggregate state.
func aggToPiece(si int, agg *shardAgg, keep bool) ShardPiece {
	if agg.raw != nil {
		return ShardPiece{Shard: si, Lo: agg.lo, Hi: agg.hi, Raw: agg.raw}
	}
	piece := ShardPiece{Shard: si, Lo: agg.lo, Hi: agg.hi, Complete: true}
	for _, name := range agg.scalarOrder {
		a := agg.scalars[name]
		piece.Metrics = append(piece.Metrics, MetricState{Name: name, Moments: a.online, Sketch: a.sketch})
	}
	for _, name := range agg.seriesOrder {
		a := agg.series[name]
		piece.Series = append(piece.Series, SeriesState{Name: name, Trials: a.trials, Points: a.points})
	}
	if keep {
		ret := &RetainedState{}
		if len(agg.trialScalars) > 0 {
			ret.Scalars = make(map[string][]stats.F64, len(agg.trialScalars))
			for name, vs := range agg.trialScalars {
				ret.Scalars[name] = stats.ToF64(vs)
			}
		}
		if len(agg.trialSeries) > 0 {
			ret.Series = make(map[string][][]stats.F64, len(agg.trialSeries))
			for name, rows := range agg.trialSeries {
				wr := make([][]stats.F64, len(rows))
				for i, row := range rows {
					wr[i] = stats.ToF64(row)
				}
				ret.Series[name] = wr
			}
		}
		piece.Retain = ret
	}
	return piece
}

// pieceToAgg restores a complete piece's shard aggregate.
func pieceToAgg(piece ShardPiece, retained bool) (*shardAgg, error) {
	agg := newShardAgg(piece.Lo, piece.Hi, retained)
	for _, m := range piece.Metrics {
		if m.Sketch == nil {
			return nil, fmt.Errorf("engine: shard %d metric %q has no sketch state", piece.Shard, m.Name)
		}
		if _, dup := agg.scalars[m.Name]; dup {
			return nil, fmt.Errorf("engine: shard %d metric %q duplicated", piece.Shard, m.Name)
		}
		agg.scalars[m.Name] = &scalarAgg{online: m.Moments, sketch: m.Sketch}
		agg.scalarOrder = append(agg.scalarOrder, m.Name)
	}
	for _, ss := range piece.Series {
		if _, dup := agg.series[ss.Name]; dup {
			return nil, fmt.Errorf("engine: shard %d series %q duplicated", piece.Shard, ss.Name)
		}
		agg.series[ss.Name] = &seriesAgg{points: ss.Points, trials: ss.Trials}
		agg.seriesOrder = append(agg.seriesOrder, ss.Name)
	}
	if retained {
		// Finalize reads the retained values, so a piece must carry them for
		// exactly the metrics and series it aggregates.
		ret, n := piece.Retain, piece.Hi-piece.Lo
		if ret == nil {
			return nil, fmt.Errorf("engine: shard %d: retained piece carries no retained values", piece.Shard)
		}
		if len(ret.Scalars) != len(agg.scalars) || len(ret.Series) != len(agg.series) {
			return nil, fmt.Errorf("engine: shard %d: retained values name %d scalars and %d series for %d metrics and %d series",
				piece.Shard, len(ret.Scalars), len(ret.Series), len(agg.scalars), len(agg.series))
		}
		for name, vs := range ret.Scalars {
			if agg.scalars[name] == nil {
				return nil, fmt.Errorf("engine: shard %d retains scalars %q, which is none of its metrics", piece.Shard, name)
			}
			if len(vs) != n {
				return nil, fmt.Errorf("engine: shard %d retained scalars %q: %d values for %d trials",
					piece.Shard, name, len(vs), n)
			}
			agg.trialScalars[name] = stats.FromF64(vs)
		}
		for name, rows := range ret.Series {
			if agg.series[name] == nil {
				return nil, fmt.Errorf("engine: shard %d retains series %q, which is none of its series", piece.Shard, name)
			}
			if len(rows) != n {
				return nil, fmt.Errorf("engine: shard %d retained series %q: %d rows for %d trials",
					piece.Shard, name, len(rows), n)
			}
			out := make([][]float64, n)
			for i, row := range rows {
				out[i] = stats.FromF64(row)
			}
			agg.trialSeries[name] = out
		}
	}
	return agg, nil
}

// replayPieces rebuilds a cut shard's aggregate by replaying the raw trial
// records of its fragments in trial order — the exact Add sequence the full
// run performs inside that shard.
func replayPieces(scenario string, si, lo, hi int, pieces []ShardPiece, keep bool) (*shardAgg, error) {
	agg := newShardAgg(lo, hi, keep)
	next := lo
	for _, piece := range pieces {
		if piece.Complete {
			return nil, fmt.Errorf("engine: merge: shard %d mixes a complete piece with fragments", si)
		}
		if piece.Lo != next {
			return nil, fmt.Errorf("engine: merge: shard %d fragments leave a gap or overlap at trial %d (piece starts at %d)",
				si, next, piece.Lo)
		}
		if len(piece.Raw) != piece.Hi-piece.Lo {
			return nil, fmt.Errorf("engine: merge: shard %d fragment [%d, %d) carries %d raw trials",
				si, piece.Lo, piece.Hi, len(piece.Raw))
		}
		for i, rec := range piece.Raw {
			if rec.Trial != piece.Lo+i {
				return nil, fmt.Errorf("engine: merge: shard %d raw trial %d out of order (want %d)",
					si, rec.Trial, piece.Lo+i)
			}
			t := &T{Trial: rec.Trial}
			for _, smp := range rec.Scalars {
				t.scalars = append(t.scalars, sample{name: smp.Name, value: float64(smp.Value)})
			}
			for _, ss := range rec.Series {
				t.series = append(t.series, seriesSample{name: ss.Name, values: stats.FromF64(ss.Values)})
			}
			if err := agg.fold(t, keep); err != nil {
				return nil, fmt.Errorf("engine: merge: scenario %s: %w", scenario, err)
			}
		}
		next = piece.Hi
	}
	if next != hi {
		return nil, fmt.Errorf("engine: merge: shard %d fragments stop at trial %d of [%d, %d)", si, next, lo, hi)
	}
	return agg, nil
}

// AdaptPartial revalidates a partial banked under a different full trial
// count and restamps it for a job of newTrials — the bridge that lets a
// cached 1024-trial prefix merge into a 4096-trial request. It is valid
// because per-trial computation depends only on (scenario, seed, trial
// index) and shard membership only on (trial index, shard size): trial 37
// of a 1024-trial run and trial 37 of a 4096-trial run are the same trial
// in the same shard. The one geometry hazard is the final shard of the old
// run: a piece marked Complete because the old N clipped its shard short
// no longer spans that shard under a larger N, and its Welford state
// cannot be extended sample-by-sample — such a partial is rejected rather
// than restamped (raw boundary pieces replay per trial, so they always
// adapt). A partial whose range exceeds newTrials is rejected too, which
// also makes shrink-reuse (banked under a larger N) safe whenever it
// passes. On success p.Trials is updated in place; on error p is
// unmodified.
func AdaptPartial(p *Partial, newTrials int) error {
	if p == nil {
		return fmt.Errorf("engine: adapt: nil partial")
	}
	if newTrials <= 0 || p.ShardSize <= 0 {
		return fmt.Errorf("engine: adapt: %s: invalid geometry (%d trials, shard size %d)",
			p.Scenario, newTrials, p.ShardSize)
	}
	if p.Trials == newTrials {
		return nil
	}
	if p.Hi > newTrials {
		return fmt.Errorf("engine: adapt: %s: range [%d, %d) exceeds %d trials",
			p.Scenario, p.Lo, p.Hi, newTrials)
	}
	for _, piece := range p.Pieces {
		if !piece.Complete {
			continue
		}
		sLo, sHi := shardBounds(piece.Shard, p.ShardSize, newTrials)
		if piece.Lo != sLo || piece.Hi != sHi {
			return fmt.Errorf("engine: adapt: %s: complete piece [%d, %d) no longer spans shard %d [%d, %d) under %d trials",
				p.Scenario, piece.Lo, piece.Hi, piece.Shard, sLo, sHi, newTrials)
		}
	}
	p.Trials = newTrials
	return nil
}

// MergePartials reassembles partial runs whose ranges tile [0, trials) into
// the full run's Report. The result is byte-identical to running the same
// (scenario, seed, trials, shard size) in one process: complete shards
// restore their exact aggregate state, cut shards replay their raw samples
// in trial order, and the shard merge then proceeds exactly as in Run.
// Execution metadata (Workers, ElapsedSeconds) is left zero for the caller
// to stamp.
func MergePartials(parts []*Partial) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: merge: no partials")
	}
	sorted := make([]*Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })

	head := sorted[0]
	if head.Trials <= 0 || head.ShardSize <= 0 {
		return nil, fmt.Errorf("engine: merge: partial of %s has no trial/shard geometry", head.Scenario)
	}
	next := 0
	for _, p := range sorted {
		if p.Scenario != head.Scenario || p.Seed != head.Seed ||
			p.Trials != head.Trials || p.ShardSize != head.ShardSize || p.Retained != head.Retained {
			return nil, fmt.Errorf("engine: merge: partial [%d, %d) of %s disagrees with [%d, %d) of %s on job identity",
				p.Lo, p.Hi, p.Scenario, head.Lo, head.Hi, head.Scenario)
		}
		if p.Lo != next {
			return nil, fmt.Errorf("engine: merge: %s: ranges leave a gap or overlap at trial %d (next range starts at %d)",
				head.Scenario, next, p.Lo)
		}
		if p.Hi <= p.Lo || p.Hi > head.Trials {
			return nil, fmt.Errorf("engine: merge: %s: invalid range [%d, %d)", head.Scenario, p.Lo, p.Hi)
		}
		next = p.Hi
	}
	if next != head.Trials {
		return nil, fmt.Errorf("engine: merge: %s: ranges cover [0, %d) of %d trials", head.Scenario, next, head.Trials)
	}

	numShards := (head.Trials + head.ShardSize - 1) / head.ShardSize
	byShard := make([][]ShardPiece, numShards)
	for _, p := range sorted {
		for _, piece := range p.Pieces {
			if piece.Shard < 0 || piece.Shard >= numShards {
				return nil, fmt.Errorf("engine: merge: %s: piece names shard %d of %d", head.Scenario, piece.Shard, numShards)
			}
			byShard[piece.Shard] = append(byShard[piece.Shard], piece)
		}
	}
	aggs := make([]*shardAgg, numShards)
	for si := range byShard {
		pieces := byShard[si]
		sLo, sHi := shardBounds(si, head.ShardSize, head.Trials)
		sort.Slice(pieces, func(i, j int) bool { return pieces[i].Lo < pieces[j].Lo })
		switch {
		case len(pieces) == 0:
			return nil, fmt.Errorf("engine: merge: %s: no pieces for shard %d", head.Scenario, si)
		case len(pieces) == 1 && pieces[0].Complete:
			if pieces[0].Lo != sLo || pieces[0].Hi != sHi {
				return nil, fmt.Errorf("engine: merge: %s: complete piece [%d, %d) does not span shard %d [%d, %d)",
					head.Scenario, pieces[0].Lo, pieces[0].Hi, si, sLo, sHi)
			}
			agg, err := pieceToAgg(pieces[0], head.Retained)
			if err != nil {
				return nil, err
			}
			aggs[si] = agg
		default:
			agg, err := replayPieces(head.Scenario, si, sLo, sHi, pieces, head.Retained)
			if err != nil {
				return nil, err
			}
			aggs[si] = agg
		}
	}
	cfg := Config{Seed: head.Seed, KeepTrialValues: head.Retained}
	return mergeShards(head.Scenario, aggs, head.Trials, cfg)
}

// RunCampaignPartial executes only the trials [lo, hi) of the campaign's
// scenario — with the campaign's shard/retention overrides applied, exactly
// as RunCampaign would — and returns the serializable partial aggregate.
// Finalize does not run: it needs the full merged Report, which only the
// merging side holds.
func RunCampaignPartial[R any](r *Runner, c Campaign[R], lo, hi int) (*Partial, error) {
	return RunCampaignPartialContext(context.Background(), r, c, lo, hi)
}

// RunCampaignPartialContext is RunCampaignPartial with an observability
// context (see Runner.RunPartialContext).
func RunCampaignPartialContext[R any](ctx context.Context, r *Runner, c Campaign[R], lo, hi int) (*Partial, error) {
	return (&Runner{cfg: c.apply(r.cfg)}).RunPartialContext(ctx, c.Scenario, lo, hi)
}

// FinalizeCampaign runs the campaign's Finalize step over an
// externally-merged Report (see MergePartials) — the coordinator's last
// step after reassembling distributed partials.
func FinalizeCampaign[R any](c Campaign[R], rep *Report) (R, error) {
	var zero R
	if c.Finalize == nil {
		return zero, fmt.Errorf("engine: campaign %s has no Finalize", c.Scenario.Name)
	}
	res, err := c.Finalize(rep)
	if err != nil {
		return zero, fmt.Errorf("engine: campaign %s: finalize: %w", c.Scenario.Name, err)
	}
	return res, nil
}
