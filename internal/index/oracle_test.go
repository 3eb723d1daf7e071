package index

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/xmltree"
)

// physicalReference lines cold — the builder's flat table for the live
// documents of ix, in document order — up with ix's physical rows: each
// live span of ix takes the next cold rows, re-based onto the span (parent
// ordinals shift, label ids are ix's). A tombstoned row references its own
// expansion; the oracle only asks that its Dewey ID no longer resolve.
func physicalReference(t *testing.T, cold, ix *Index) *Index {
	t.Helper()
	want := &Index{Labels: ix.Labels, nodes: rows(ix)}
	k := int32(0)
	for _, sp := range ix.LiveSpans() {
		shift := sp[0] - k
		for ord := sp[0]; ord < sp[1]; ord, k = ord+1, k+1 {
			if int(k) >= len(cold.nodes) {
				t.Fatalf("live rows outnumber the cold build's %d", len(cold.nodes))
			}
			w := cold.nodes[k]
			id, ok := ix.labelIDs[cold.Labels[w.Label]]
			if !ok {
				t.Fatalf("label %q missing from the index's label table", cold.Labels[w.Label])
			}
			w.Label = id
			if w.Parent >= 0 {
				w.Parent += shift
			}
			want.nodes[ord] = w
		}
	}
	if int(k) != len(cold.nodes) {
		t.Fatalf("%d live rows, the cold build has %d", k, len(cold.nodes))
	}
	return want
}

// survivorBuild is the cold flat build of the live documents, with their
// document ids preserved.
func survivorBuild(t *testing.T, live map[string]*xmltree.Document) *Index {
	t.Helper()
	docs := make([]*xmltree.Document, 0, len(live))
	for _, d := range live {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	return flatBuild(t, &xmltree.Repository{Docs: docs})
}

// TestAccessorOracle checks every accessor at every ordinal against the
// builder's flat NodeInfo: on the packedCorpora indexes fresh, along
// random mutation histories — tombstones, delta appends, the full pack an
// append falls back to, repacks and compactions — and after a
// re-categorization of the mutated table.
func TestAccessorOracle(t *testing.T) {
	for name, repo := range packedRepos() {
		t.Run(name, func(t *testing.T) {
			h := fnv.New64a()
			h.Write([]byte(name))
			rng := rand.New(rand.NewSource(int64(h.Sum64())))
			ix, err := Build(repo, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			live := map[string]*xmltree.Document{}
			for _, d := range repo.Docs {
				live[d.Name] = d
			}
			assertAccessorsMatch(t, "fresh", flatBuild(t, repo), ix)

			for step := 0; step < 16; step++ {
				names := make([]string, 0, len(live))
				for n := range live {
					names = append(names, n)
				}
				sort.Strings(names)
				var op string
				switch r := rng.Intn(6); {
				case r == 0 && len(live) > 1:
					op = "delete"
					name := names[rng.Intn(len(names))]
					if ix, err = ix.DeleteDoc(name); err != nil {
						t.Fatal(err)
					}
					delete(live, name)
				case r == 1:
					op = "replace"
					name := names[rng.Intn(len(names))]
					del, err := ix.DeleteDoc(name)
					if errors.Is(err, ErrLastDocument) {
						continue
					} else if err != nil {
						t.Fatal(err)
					}
					doc := allocBagDoc(name, rng)
					if ix, err = AppendAs(del, doc, del.NextDocID(), DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					live[name] = doc
				case r == 2:
					// A sibling append claims this generation's tails first,
					// so the kept append packs the live rows afresh.
					op = "sibling"
					if _, err := AppendAs(ix, allocBagDoc("sibling", rng), ix.NextDocID(), DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("sibling-%d", step)
					doc := allocBagDoc(name, rng)
					before := PackCount()
					if ix, err = AppendAs(ix, doc, ix.NextDocID(), DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					if PackCount() == before {
						t.Fatalf("step %d: the append after a sibling's did not repack", step)
					}
					live[name] = doc
				case r == 3:
					op = "repack"
					ix = ix.Repacked()
				default:
					op = "append"
					name := fmt.Sprintf("add-%d", step)
					doc := allocBagDoc(name, rng)
					if ix, err = AppendAs(ix, doc, ix.NextDocID(), DefaultOptions()); err != nil {
						t.Fatal(err)
					}
					live[name] = doc
				}
				label := fmt.Sprintf("step %d (%s)", step, op)
				cold := survivorBuild(t, live)
				if ix.Stats != cold.Stats {
					t.Fatalf("%s: stats %+v, want %+v", label, ix.Stats, cold.Stats)
				}
				assertAccessorsMatch(t, label, physicalReference(t, cold, ix), ix)
				if err := ix.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			assertAccessorsMatch(t, "compacted", survivorBuild(t, live), ix.Compacted())

			// Re-categorize the mutated table: live rows take the new
			// categories, tombstoned rows keep theirs, ordinals stay.
			want := physicalReference(t, survivorBuild(t, live), ix)
			cats := make([]Category, ix.NodeCount())
			changed := 0
			for ord := range cats {
				cats[ord] = Category(1 << rng.Intn(4))
				if ix.LiveOrd(int32(ord)) {
					if want.nodes[ord].Cat != cats[ord] {
						changed++
					}
					want.nodes[ord].Cat = cats[ord]
				}
			}
			if got := ix.SetCategories(cats); got != changed {
				t.Fatalf("SetCategories changed %d live rows, want %d", got, changed)
			}
			assertAccessorsMatch(t, "recategorized", want, ix)
		})
	}
}

// TestEveryConstructorReturnsPacked pins that every exported constructor
// — builds, loads of every format and generation, mutations — returns an
// index serving from the packed table alone, with the answers of a fresh
// build.
func TestEveryConstructorReturnsPacked(t *testing.T) {
	repoOf := func(docs ...*xmltree.Document) *xmltree.Repository {
		r := &xmltree.Repository{}
		for _, d := range docs {
			r.Add(d)
		}
		return r
	}
	fresh := func(docs ...*xmltree.Document) *Index {
		ix, err := Build(&xmltree.Repository{Docs: docs}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	check := func(label string, got *Index, err error, want *Index) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.nodes != nil {
			t.Fatalf("%s: holds the builders' flat table", label)
		}
		// Validate reads the packed table, and only the packed table.
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want != nil {
			assertLiveEqual(t, label, want, got.Compacted())
		}
	}

	named := func(name string, d *xmltree.Document) *xmltree.Document {
		d.Name = name
		return d
	}
	a, b, c := named("a", xmltree.BuildFigure2a()), named("b", xmltree.BuildFigure1()), named("c", xmltree.BuildFigure2a())
	repo := repoOf(a, b, c)
	base, err := Build(repo, DefaultOptions())
	check("Build", base, err, nil)
	assertAccessorsMatch(t, "Build", flatBuild(t, repo), base)
	one, err := BuildDocument(xmltree.BuildFigure1(), DefaultOptions())
	check("BuildDocument", one, err, fresh(xmltree.BuildFigure1()))
	as, err := BuildDocumentAs(xmltree.BuildFigure1(), 7, DefaultOptions())
	check("BuildDocumentAs", as, err, nil)
	if as.DocOf(0) != 7 {
		t.Fatalf("BuildDocumentAs: document number %d, want 7", as.DocOf(0))
	}

	dir := t.TempDir()
	paths := make([]string, 0, len(repo.Docs))
	for i, d := range repo.Docs {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, d); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("doc%d.xml", i))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	streamed, err := BuildStreamFiles(paths, DefaultOptions())
	if err == nil {
		streamed.DocNames = base.DocNames // paths, not document names
	}
	check("BuildStreamFiles", streamed, err, base)

	var bin, snap bytes.Buffer
	if err := base.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := base.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{
		"GKSI":      bin.Bytes(),
		"GKS3":      snap.Bytes(),
		"flat GKSI": flatGKSI(t, base),
		"flat GKS3": flatGKS3(t, base),
		"gob v1":    gobV1Image(t, base),
	}
	for name, img := range images {
		got, err := Load(bytes.NewReader(img))
		check("Load "+name, got, err, base)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = LoadFile(path)
		check("LoadFile "+name, got, err, base)
	}
	var meta bytes.Buffer
	arena, err := EncodeMeta(&meta, base)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ img, arena []byte }{"packed": {meta.Bytes(), bytes.Clone(arena)}, "flat": {flatMeta(t, base), nil}} {
		got, err := DecodeMeta(bytes.NewReader(c.img), int64(len(c.img)), c.arena)
		check("DecodeMeta "+name, got, err, nil)
		assertAccessorsMatch(t, "DecodeMeta "+name, flatBuild(t, repo), got)
	}

	d := named("d", xmltree.BuildFigure1())
	delta, err := AppendAs(base, d, base.NextDocID(), DefaultOptions())
	check("AppendAs delta", delta, err, fresh(a, b, c, d))
	// The lineage's tails now belong to delta: a second append on base
	// packs base's rows afresh first.
	e := named("e", xmltree.BuildFigure1())
	sibling, err := AppendAs(base, e, base.NextDocID(), DefaultOptions())
	check("AppendAs sibling", sibling, err, fresh(a, b, c, e))
	f := named("f", xmltree.BuildFigure2a())
	appended, err := AppendAs(delta, f, delta.NextDocID(), DefaultOptions())
	check("Append", appended, err, fresh(a, b, c, d, f))
	g, h := named("g", xmltree.BuildFigure1()), named("h", xmltree.BuildFigure2a())
	chain, err := AppendAs(base, g, base.NextDocID(), DefaultOptions())
	if err == nil {
		chain, err = AppendAs(chain, h, chain.NextDocID(), DefaultOptions())
	}
	check("AppendAs chain", chain, err, fresh(a, b, c, g, h))
	// Replacing the top document: its successor takes the tombstoned
	// number, so the append packs the live rows first.
	noF, err := appended.DeleteDoc(f.Name)
	if err != nil {
		t.Fatal(err)
	}
	f2 := named("f", xmltree.BuildFigure1())
	replaced, err := AppendAs(noF, f2, noF.NextDocID(), DefaultOptions())
	check("AppendAs over a tombstoned number", replaced, err, fresh(a, b, c, d, f2))

	del, err := appended.DeleteDoc(b.Name)
	check("DeleteDoc", del, err, fresh(a, c, d, f))
	check("Compacted", del.Compacted(), nil, fresh(a, c, d, f))
	check("Repacked tombstoned", del.Repacked(), nil, fresh(a, c, d, f))
	check("Repacked delta", appended.Repacked(), nil, fresh(a, b, c, d, f))
	if debt := appended.Repacked().PackDebt(); debt != 0 {
		t.Fatalf("Repacked left pack debt %.2f", debt)
	}
}
