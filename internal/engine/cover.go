package engine

import "fmt"

// CachedRange is one cached partial a range cover may adopt: trials
// [Lo, Hi) of a run banked under a full count of Trials.
type CachedRange struct {
	Lo, Hi, Trials int
}

// RangeCover is a greedy cover of a job's trial space: the cached ranges it
// adopts and the gaps left to compute, together tiling [0, trials).
type RangeCover struct {
	// Chosen indexes the adopted candidates in range order; Parts holds
	// their partials, adapted to the job's trial count.
	Chosen []int
	Parts  []*Partial
	// Gaps are the uncovered [lo, hi) intervals, in range order.
	Gaps [][2]int
	// Rejected holds one error per fetched candidate that AdaptPartial
	// refused; the cover treated it as absent.
	Rejected []error
}

// CoverRanges chains cached partial ranges into a cover of [0, trials).
// Partials cannot be trimmed, so at each uncovered cursor only a candidate
// starting exactly there extends the chain: the widest one, and on a width
// tie one stamped with the job's own trial count, which adapts trivially.
// Where no candidate starts at the cursor, a gap opens up to the next
// candidate's start. fetch loads candidate i's partial (nil when the entry
// is gone or undecodable) and is called only for candidates the chain
// selects; a candidate that fails to fetch or to adapt drops out and the
// cursor retries the rest. Candidates that are empty or reach outside
// [0, trials) are ignored.
func CoverRanges(trials int, cands []CachedRange, fetch func(i int) *Partial) RangeCover {
	var cv RangeCover
	used := make([]bool, len(cands))
	for i, c := range cands {
		used[i] = c.Lo < 0 || c.Hi <= c.Lo || c.Hi > trials
	}
	for cursor := 0; cursor < trials; {
		best := -1
		for i, c := range cands {
			if used[i] || c.Lo != cursor {
				continue
			}
			if best < 0 || c.Hi > cands[best].Hi ||
				(c.Hi == cands[best].Hi && c.Trials == trials && cands[best].Trials != trials) {
				best = i
			}
		}
		if best < 0 {
			next := trials
			for i, c := range cands {
				if !used[i] && c.Lo > cursor && c.Lo < next {
					next = c.Lo
				}
			}
			cv.Gaps = append(cv.Gaps, [2]int{cursor, next})
			cursor = next
			continue
		}
		used[best] = true
		p := fetch(best)
		if p == nil {
			continue
		}
		c := cands[best]
		if err := AdaptPartial(p, trials); err != nil {
			cv.Rejected = append(cv.Rejected, fmt.Errorf("skipping cached range [%d, %d): %w", c.Lo, c.Hi, err))
			continue
		}
		cv.Chosen = append(cv.Chosen, best)
		cv.Parts = append(cv.Parts, p)
		cursor = c.Hi
	}
	return cv
}
