package index

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strings"
)

// Streaming build: the token driver of the event builder (build.go). It
// feeds encoding/xml tokens to the builder without materializing the
// document tree — the paper's "single pass over the data" (§2.2) made
// literal — so peak memory is the index plus the builder's scratch, which
// is linear in the depth, instead of the index plus the whole tree. That
// is what lets the real 1.45 GB DBLP dump be indexed on a laptop.
//
// It reads XML as xmltree.Parse does: attributes become leading child
// elements, character data and attribute values are trimmed and dropped
// when empty, comments, processing instructions and directives are
// ignored. So the index equals
// Build over the parsed tree (property-tested).

// BuildStreamFiles streams every file, in order, into one builder — file
// i is document number i, named by its path, and ordinals, labels and
// postings continue from file to file: equivalent to parsing and
// Build-ing all files.
func BuildStreamFiles(paths []string, opts Options) (*Index, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("index: no input files")
	}
	b := newBuilder(opts, opts.Hint.Nodes)
	for i, p := range paths {
		if err := b.addFile(p, int32(i)); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// addFile streams the XML file at path as document number num.
func (b *builder) addFile(path string, num int32) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return b.addStream(f, num, path)
}

// addStream feeds the XML document read from r to the builder as document
// number num. On error the builder holds a partial document and must be
// dropped.
func (b *builder) addStream(r io.Reader, num int32, name string) error {
	b.begin(num, name)
	dec := xml.NewDecoder(r)
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("index: streaming %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(b.frames) == 0 {
				if sawRoot {
					return fmt.Errorf("index: streaming %s: multiple root elements", name)
				}
				sawRoot = true
			}
			b.open(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.open(a.Name.Local)
				if v := strings.TrimSpace(a.Value); v != "" {
					b.text(v)
				}
				b.close()
			}
		case xml.EndElement:
			if len(b.frames) == 0 {
				return fmt.Errorf("index: streaming %s: unbalanced end element", name)
			}
			b.close()
		case xml.CharData:
			if s := bytes.TrimSpace(t); len(s) > 0 && len(b.frames) > 0 {
				b.text(string(s))
			}
		}
	}
	if !sawRoot {
		return fmt.Errorf("index: streaming %s: document has no root element", name)
	}
	if len(b.frames) != 0 {
		return fmt.Errorf("index: streaming %s: unexpected end of input", name)
	}
	return nil
}
