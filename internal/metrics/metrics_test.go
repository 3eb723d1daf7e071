package metrics

import (
	"math"
	"testing"
)

func TestRankScorePerfect(t *testing.T) {
	// All true nodes at the top: score 1 (paper: "Score of 1 means that no
	// true XML node is ranked lower than a XML node which is not true").
	if got := RankScore([]int{1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect score = %v, want 1", got)
	}
	if got := RankScore([]int{1}); got != 1 {
		t.Errorf("single top score = %v, want 1", got)
	}
}

func TestRankScorePenalizesLowTrueNodes(t *testing.T) {
	// True nodes at 1,2,3,4 and one at 10 (the QD2 situation): w=10,
	// wa = 10+9+8+7+1 = 35, wt = 55.
	got := RankScore([]int{1, 2, 3, 4, 10})
	want := 35.0 / 55.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("score = %v, want %v", got, want)
	}
	if RankScore([]int{5}) >= RankScore([]int{2}) {
		t.Error("a lower single true node must score worse")
	}
}

func TestRankScoreEdgeCases(t *testing.T) {
	if got := RankScore(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := RankScore([]int{0}); got != 0 {
		t.Errorf("invalid position = %v", got)
	}
}

func TestTruePositions(t *testing.T) {
	got := TruePositions([]int{3, 2, 3, 1})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TruePositions = %v, want [1 3]", got)
	}
	if TruePositions(nil) != nil {
		t.Error("empty input must return nil")
	}
	if TruePositions([]int{0, 0}) != nil {
		t.Error("all-zero input must return nil")
	}
}

func TestPrecisionRecall(t *testing.T) {
	retrieved := map[int32]bool{1: true, 2: true, 3: true, 4: true}
	relevant := map[int32]bool{2: true, 3: true}
	p, r := PrecisionRecall(retrieved, relevant)
	if math.Abs(p-0.5) > 1e-12 || math.Abs(r-1.0) > 1e-12 {
		t.Errorf("P/R = %v/%v, want 0.5/1.0", p, r)
	}
	p, r = PrecisionRecall(nil, relevant)
	if p != 0 || r != 0 {
		t.Error("empty retrieved must give zeros")
	}
}

func TestFeedbackDeterministicAndSane(t *testing.T) {
	f := Feedback{Raters: 40, Seed: 9}
	a := f.Rate(0.9, 0.1)
	b := f.Rate(0.9, 0.1)
	if a != b {
		t.Error("feedback must be deterministic for a fixed seed")
	}
	if a.Total() != 40 {
		t.Errorf("total = %d, want 40", a.Total())
	}
	// Strong GKS advantage: essentially everyone rates 1 or 2.
	if a.GKSBetter() < 38 {
		t.Errorf("GKS-better = %d/40 with a 0.8 utility gap", a.GKSBetter())
	}
	// Strong SLCA advantage flips the histogram.
	c := f.Rate(0.1, 0.9)
	if c.GKSBetter() > 2 {
		t.Errorf("GKS-better = %d/40 with a -0.8 gap", c.GKSBetter())
	}
	// Near-tie: both sides represented.
	d := f.Rate(0.5, 0.45)
	if d.GKSBetter() == 0 || d.GKSBetter() == 40 {
		t.Errorf("near-tie histogram too extreme: %+v", d)
	}
}

func TestFeedbackDefaultsPanel(t *testing.T) {
	f := Feedback{}
	if got := f.Rate(1, 0).Total(); got != 40 {
		t.Errorf("default panel = %d, want 40", got)
	}
}

func TestGradedUtility(t *testing.T) {
	// Perfect top-k of fully relevant results.
	if got := GradedUtility([]float64{1, 1, 1}, 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect = %v", got)
	}
	// Empty response scores 0.
	if got := GradedUtility(nil, 5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	// Graded results score between 0 and 1; earlier slots weigh more.
	front := GradedUtility([]float64{1, 0.5, 0}, 3)
	back := GradedUtility([]float64{0, 0.5, 1}, 3)
	if front <= back {
		t.Errorf("front-loaded %v should beat back-loaded %v", front, back)
	}
	// Short lists are penalized against the full k slots.
	short := GradedUtility([]float64{1}, 10)
	if short >= 0.5 {
		t.Errorf("single hit over 10 slots = %v, want < 0.5", short)
	}
	// Out-of-range grades are clamped.
	if got := GradedUtility([]float64{5, -3}, 2); got < 0 || got > 1 {
		t.Errorf("clamped = %v", got)
	}
	// k <= 0 uses the list length.
	if got := GradedUtility([]float64{1, 1}, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("k=0 = %v", got)
	}
}
