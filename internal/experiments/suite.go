// Package experiments reproduces every table and figure of the paper's
// evaluation (Agarwal et al., EDBT 2016, §7) on the synthetic dataset
// analogs of internal/datagen. Each experiment returns typed rows plus a
// tabwriter-based printer so cmd/gksbench and the root benchmark suite can
// regenerate the paper's output. EXPERIMENTS.md records paper-vs-measured
// numbers for each experiment.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Suite lazily builds and caches the datasets the experiments share.
type Suite struct {
	// Scale multiplies dataset sizes (1 = test scale, larger for benches).
	Scale int

	cache map[string]*Dataset
}

// Dataset bundles a generated repository with its index and engine, plus
// the measurements Table 4 reports.
type Dataset struct {
	Name      string
	Repo      *xmltree.Repository
	Index     *index.Index
	Engine    *core.Engine
	DataBytes int64
	BuildTime time.Duration
}

// NewSuite creates a suite at the given scale (values < 1 become 1).
func NewSuite(scale int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{Scale: scale, cache: make(map[string]*Dataset)}
}

// Dataset builds (or returns the cached) named dataset. Valid names are
// the analogs of the paper's Table 4: sigmod, mondial, plays, treebank,
// swissprot, protein, dblp, nasa, interpro and xmark.
func (s *Suite) Dataset(name string) (*Dataset, error) {
	if d, ok := s.cache[name]; ok {
		return d, nil
	}
	repo, err := s.generate(name)
	if err != nil {
		return nil, err
	}
	var dataBytes int64
	for _, doc := range repo.Docs {
		n, err := xmltree.XMLSize(doc)
		if err != nil {
			return nil, fmt.Errorf("experiments: sizing %s: %w", name, err)
		}
		dataBytes += n
	}
	start := time.Now()
	ix, err := index.Build(repo, index.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: indexing %s: %w", name, err)
	}
	d := &Dataset{
		Name:      name,
		Repo:      repo,
		Index:     ix,
		Engine:    core.NewEngine(ix),
		DataBytes: dataBytes,
		BuildTime: time.Since(start),
	}
	s.cache[name] = d
	return d, nil
}

func (s *Suite) generate(name string) (*xmltree.Repository, error) {
	cfg := datagen.Config{Seed: 42, Scale: s.Scale}
	switch name {
	case "sigmod":
		return datagen.Repo(datagen.PaperSigmod(s.Scale)), nil
	case "dblp":
		return datagen.Repo(datagen.PaperDBLP(s.Scale)), nil
	case "mondial":
		return datagen.Repo(datagen.Mondial(cfg)), nil
	case "plays":
		return datagen.Plays(cfg), nil
	case "treebank":
		return datagen.Repo(datagen.TreeBank(cfg)), nil
	case "swissprot":
		return datagen.Repo(datagen.SwissProt(cfg)), nil
	case "protein":
		return datagen.Repo(datagen.ProteinSequence(cfg)), nil
	case "nasa":
		return datagen.Repo(datagen.NASA(cfg)), nil
	case "interpro":
		return datagen.Repo(datagen.InterPro(cfg)), nil
	case "xmark":
		return datagen.Repo(datagen.XMark(cfg)), nil
	}
	return nil, fmt.Errorf("experiments: unknown dataset %q", name)
}

// paperQueries exposes the Table 6 workload to the experiment files.
func paperQueries() []datagen.PaperQuery { return datagen.PaperQueries() }

// timeSearch runs the query reps times and returns the fastest wall-clock
// duration together with the last response — the response-time measurement
// used by the Figure 8–10 experiments.
func timeSearch(eng *core.Engine, q core.Query, sThreshold, reps int) (time.Duration, *core.Response, error) {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	var resp *core.Response
	for i := 0; i < reps; i++ {
		start := time.Now()
		r, err := eng.Search(q, sThreshold)
		el := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		if resp == nil || el < best {
			best, resp = el, r
		}
	}
	return best, resp, nil
}
