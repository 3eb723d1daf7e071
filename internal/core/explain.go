package core

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Explanation traces one search through the GKS pipeline — the efficiency
// story of §4 made inspectable: posting sizes, the merged list, window
// blocks, LCP/LCE candidates, witness filtering and ranking.
type Explanation struct {
	Query Query
	S     int
	// PostingSizes is |S_i| per keyword.
	PostingSizes []int
	// SLSize is |S_L| (the sum of posting sizes).
	SLSize int
	// RecordsTouched counts the records (depth-1 subtrees) the threshold
	// merge examined: those holding an entry of one of the n − s + 1
	// shortest lists. RecordsQualified counts the ones holding s distinct
	// keywords, whose entries alone enter the window scan. Both are 0 when
	// the merge did not filter (s = 1, or its rule declined).
	RecordsTouched, RecordsQualified int
	// Blocks is the number of sliding-window blocks with s unique keywords.
	Blocks int
	// PrunedBlocks counts the blocks that yield no candidate because their
	// ends lie in two records or their LCA is a document root; the window
	// stage skips them without an LCA walk.
	PrunedBlocks int
	// LCPNodes is the number of distinct longest-common-prefix nodes below
	// a document root. Root LCP nodes are not counted: a root is never a
	// candidate, and the window stage never resolves one.
	LCPNodes int
	// Candidates is the number of distinct candidates after lifting.
	Candidates int
	// EntityCandidates counts candidates that are LCE nodes.
	EntityCandidates int
	// Survivors is the response size after the independent-witness filter.
	Survivors int
	// MergeTime, ScanTime and RankTime split the wall-clock cost of the
	// actual search pipeline (they are coarse views of Stages: ScanTime
	// covers the window, lift and filter stages).
	MergeTime, ScanTime, RankTime time.Duration
	// Stages is the full per-stage timing breakdown of the search.
	Stages StageTimings
	// Response is the final ranked response.
	Response *Response
}

// String renders the trace as a compact report.
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s (|Q|=%d, s=%d)\n", ex.Query, ex.Query.Len(), ex.S)
	fmt.Fprintf(&b, "  postings: %v -> |S_L| = %d (merge %v)\n",
		ex.PostingSizes, ex.SLSize, ex.MergeTime.Round(time.Microsecond))
	if ex.RecordsTouched > 0 {
		fmt.Fprintf(&b, "  records:  %d touched -> %d qualified\n", ex.RecordsTouched, ex.RecordsQualified)
	}
	fmt.Fprintf(&b, "  windows:  %d blocks (%d pruned) -> %d LCP nodes -> %d candidates (%d LCE) (scan %v)\n",
		ex.Blocks, ex.PrunedBlocks, ex.LCPNodes, ex.Candidates, ex.EntityCandidates, ex.ScanTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  witness:  %d survivors (rank %v)\n",
		ex.Survivors, ex.RankTime.Round(time.Microsecond))
	return b.String()
}

// explainCounts receives the intermediate sizes of one search for Explain;
// collectCandidates fills it when handed one.
type explainCounts struct {
	postingSizes []int
	windowStats
	recordsTouched, recordsQualified       int
	lcpNodes, candidates, entityCandidates int
}

// Explain runs the search while recording pipeline statistics; the
// response in the result is identical to Search(q, s). The counts come from
// the real search, SearchCtx's own pipeline, which polls ctx in the
// candidate stages and the rank sweep. The shard scatter-gather relies on
// this to cancel sibling explains when one shard fails.
func (e *Engine) Explain(ctx context.Context, q Query, s int) (*Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var c explainCounts
	resp, err := e.search(ctx, q, s, 0, &c)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Query:            q,
		S:                resp.S,
		PostingSizes:     c.postingSizes,
		SLSize:           resp.SLSize,
		RecordsTouched:   c.recordsTouched,
		RecordsQualified: c.recordsQualified,
		Blocks:           c.blocks,
		PrunedBlocks:     c.pruned,
		LCPNodes:         c.lcpNodes,
		Candidates:       c.candidates,
		EntityCandidates: c.entityCandidates,
		Survivors:        resp.Total,
		MergeTime:        resp.Stages.Merge,
		ScanTime:         resp.Stages.Windows + resp.Stages.Lift + resp.Stages.Filter,
		RankTime:         resp.Stages.Rank,
		Stages:           resp.Stages,
		Response:         resp,
	}, nil
}
