package gks

// Background pack maintenance for live ingestion. An append extends the
// node table's columns in place at O(document) cost, and a delete or a
// replacement tombstones the old document's rows, which keep their place
// in the table. PackDebt measures that garbage; RepackIfNeeded compacts
// it away once it crosses a threshold — the LSM-style amortization that
// bounds both memory bloat and the per-query cost of skipping dead
// ordinals.

// PackDebt reports the fraction of the node table's rows that are
// tombstoned, in [0, 1]. Zero for an index without deletes.
func (s *System) PackDebt() float64 { return s.ix.PackDebt() }

// Repacked returns a system whose pack debt has been paid: tombstones
// compacted away, so the node table is the one a cold build of the
// surviving documents holds (index.Index.Compacted). The receiver keeps
// serving unchanged.
func (s *System) Repacked() Searcher { return newSystem(s.ix.Compacted(), s.repo) }

// RepackIfNeeded returns sys.Repacked() when sys's pack debt is at or past
// threshold; otherwise it returns sys unchanged. The rebuilt system is a
// copy-on-write successor: sys keeps serving searches until the caller
// swaps the result in. A threshold at or below zero disables repacking
// (repacking on every mutation would reintroduce the O(N)-per-append
// collapse this exists to fix).
func RepackIfNeeded(sys Searcher, threshold float64) (Searcher, bool) {
	if threshold <= 0 || sys.PackDebt() < threshold {
		return sys, false
	}
	return sys.Repacked(), true
}
