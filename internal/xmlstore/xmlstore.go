// Package xmlstore persists blogosphere corpora as XML, matching the
// paper's Crawler Module, which "stores the bloggers' information
// (including the bloggers' personal information, posts, and corresponding
// comments) in XML files".
//
// Two layouts are supported: a single snapshot file (Save/Load) and a
// sharded directory with one XML file per blogger (SaveShards/LoadShards),
// which is what a multi-threaded crawler naturally produces.
//
// Writing goes through encoding/xml's Encoder. Reading does not use
// encoding/xml: Read, Load and LoadShards hold each document in memory
// and decode it with a walker (walker.go) over a purpose-built scanner
// (scanner.go). The scanner accepts and rejects exactly what encoding/xml's
// Strict Decoder.Token does, and the walker builds the corpus a reflective
// xml.Unmarshal into the schemas below would, except that it also rejects
// content after the root element; FuzzRead checks both against the
// reflective decode kept in the tests. No decoded string aliases the
// input buffer, which is garbage once a load returns.
package xmlstore

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mass/internal/blog"
)

// fileDoc is the on-disk schema of a snapshot file.
type fileDoc struct {
	XMLName  xml.Name       `xml:"blogosphere"`
	Bloggers []blog.Blogger `xml:"bloggers>blogger"`
	Posts    []blog.Post    `xml:"posts>post"`
	Links    []blog.Link    `xml:"links>link"`
}

// shardDoc is the on-disk schema of a per-blogger shard: the blogger, their
// posts, and their outgoing links.
type shardDoc struct {
	XMLName xml.Name     `xml:"space"`
	Blogger blog.Blogger `xml:"blogger"`
	Posts   []blog.Post  `xml:"posts>post"`
	Links   []blog.Link  `xml:"links>link"`
}

// Write encodes the corpus as a single XML document to w.
func Write(w io.Writer, c *blog.Corpus) error {
	doc := fileDoc{}
	for _, id := range c.BloggerIDs() {
		doc.Bloggers = append(doc.Bloggers, *c.Bloggers[id])
	}
	for _, id := range c.PostIDs() {
		doc.Posts = append(doc.Posts, *c.Posts[id])
	}
	doc.Links = append(doc.Links, c.Links...)
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmlstore: encode: %w", err)
	}
	return enc.Flush()
}

// Read decodes a corpus from a single XML document, rebuilding all indexes
// and validating referential integrity. Only whitespace, comments and
// processing instructions may follow the root element: a second document
// or any other trailing token is an error rather than silently dropped.
func Read(r io.Reader) (*blog.Corpus, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: read: %w", err)
	}
	return decode(data)
}

// decode is Read over a document already in memory.
func decode(data []byte) (*blog.Corpus, error) {
	w := &walker{c: blog.NewCorpus()}
	w.s.reset(data)
	if err := w.document(); err != nil {
		return nil, fmt.Errorf("xmlstore: decode: %w", err)
	}
	return w.finish()
}

// Save writes the corpus snapshot to path, creating parent directories.
func Save(path string, c *blog.Corpus) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a corpus snapshot from path.
func Load(path string) (*blog.Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// SaveShards writes one XML file per blogger into dir (created if needed).
// File names are sanitized blogger IDs with an .xml suffix.
func SaveShards(dir string, c *blog.Corpus) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	outBy := map[blog.BloggerID][]blog.Link{}
	for _, l := range c.Links {
		outBy[l.From] = append(outBy[l.From], l)
	}
	for _, id := range c.BloggerIDs() {
		doc := shardDoc{Blogger: *c.Bloggers[id]}
		for _, pid := range c.PostsBy(id) {
			doc.Posts = append(doc.Posts, *c.Posts[pid])
		}
		doc.Links = outBy[id]
		path := filepath.Join(dir, sanitize(string(id))+".xml")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(f, xml.Header); err != nil {
			f.Close()
			return err
		}
		enc := xml.NewEncoder(f)
		enc.Indent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return fmt.Errorf("xmlstore: shard %s: %w", id, err)
		}
		if err := enc.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadShards reads every *.xml shard in dir and assembles the corpus.
func LoadShards(dir string) (*blog.Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	w := &walker{c: blog.NewCorpus()}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		w.s.reset(data)
		if err := w.shard(); err != nil {
			return nil, fmt.Errorf("xmlstore: shard %s: %w", name, err)
		}
	}
	return w.finish()
}

// sanitize maps a blogger ID to a safe file name.
func sanitize(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
