package gks

// Background pack maintenance for live ingestion. The delta-maintaining
// pack (internal/index/packed_append.go) keeps every append O(document),
// but the table it extends drifts from canonical: delta documents pack
// against the frozen base shape table (no cross-document sharing with
// the base), and deletes accumulate as tombstoned rows. PackDebt
// measures that drift; RepackIfNeeded pays it down with one full
// deterministic repack once it crosses a threshold — the LSM-style
// amortization that bounds both memory bloat and the per-query cost of
// skipping dead ordinals.

// PackDebt reports the fraction of the node table that is garbage or past
// the canonical pack: tombstoned rows plus delta-appended rows, over total
// rows, in [0, 1]. Zero for freshly packed (or flat, tombstone-free)
// indexes.
func (s *System) PackDebt() float64 { return s.ix.PackDebt() }

// Repacked returns a system whose pack debt has been paid: tombstones
// compacted away and a packed table rebuilt by one full deterministic pack
// of the surviving documents (index.Index.Repacked). The receiver keeps
// serving unchanged.
func (s *System) Repacked() Searcher { return newSystem(s.ix.Repacked(), s.repo) }

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
