package xmlstore

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"

	"mass/internal/blog"
)

// walker decodes corpus documents by walking xml.Decoder.Token, which
// keeps encoding/xml's well-formedness checks (end tags must match) but
// skips its reflection and the intermediate value slices a reflective
// decode builds. It reproduces what xml.Unmarshal would do with the
// fileDoc and shardDoc schemas:
//
//   - elements and attributes match on their local name, in any
//     namespace;
//   - a text field is the concatenated character data directly inside
//     its element; child elements are skipped;
//   - unknown elements and attributes are ignored, and a repeated field
//     element or attribute overwrites (slices append);
//   - time.Time attributes decode through UnmarshalText.
//
// Bloggers go into the corpus as soon as they are complete. Posts and
// links are queued (as pointers, not copies) until the whole input is
// read, because a post may name a blogger declared later in the document.
type walker struct {
	d     *xml.Decoder // the current input
	c     *blog.Corpus // the corpus being built, across inputs
	text  []byte       // character-data scratch, reused by every text field
	posts []*blog.Post
	links []blog.Link
	err   error // first blogger the corpus rejected
}

// errTrailing reports content after the root element.
var errTrailing = errors.New("content after the root element")

// root consumes the prolog and the root start tag, which must be named
// name. As with xml.Decoder.Decode, any character data, comments,
// processing instructions or directives before it are ignored.
func (w *walker) root(name string) error {
	for {
		tok, err := w.d.Token()
		if err != nil {
			return err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != name {
				return fmt.Errorf("expected element type <%s> but have <%s>", name, se.Name.Local)
			}
			return nil
		}
	}
}

// end consumes what follows the root element up to EOF. Whitespace,
// comments and processing instructions are allowed; anything else is
// errTrailing, and malformed trailing bytes are a syntax error.
func (w *walker) end() error {
	for {
		tok, err := w.d.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.Comment, xml.ProcInst:
		case xml.CharData:
			if len(bytes.Trim(t, " \t\r\n")) > 0 {
				return errTrailing
			}
		default:
			return errTrailing
		}
	}
}

// children walks the child elements of the element whose start tag was
// just read, through its end tag. fn gets each child's start tag and
// reports whether it consumed the child (through its end tag); children
// it declines are skipped whole. Character data and other tokens between
// children are ignored.
func (w *walker) children(fn func(se xml.StartElement) (bool, error)) error {
	for {
		tok, err := w.d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			consumed, err := fn(t)
			if err != nil {
				return err
			}
			if !consumed {
				if err := w.d.Skip(); err != nil {
					return err
				}
			}
		case xml.EndElement:
			return nil
		}
	}
}

// each is children restricted to elements named name.
func (w *walker) each(name string, fn func(se xml.StartElement) error) error {
	return w.children(func(se xml.StartElement) (bool, error) {
		if se.Name.Local != name {
			return false, nil
		}
		return true, fn(se)
	})
}

// chardata returns the character data directly inside the element whose
// start tag was just read, consuming it through its end tag.
func (w *walker) chardata() (string, error) {
	w.text = w.text[:0]
	for {
		tok, err := w.d.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := w.d.Skip(); err != nil {
				return "", err
			}
		case xml.CharData:
			w.text = append(w.text, t...)
		case xml.EndElement:
			return string(w.text), nil
		}
	}
}

// document decodes a fileDoc (<blogosphere>).
func (w *walker) document() error {
	if err := w.root("blogosphere"); err != nil {
		return err
	}
	err := w.children(func(se xml.StartElement) (bool, error) {
		switch se.Name.Local {
		case "bloggers":
			return true, w.each("blogger", func(se xml.StartElement) error {
				b := &blog.Blogger{}
				if err := w.blogger(se, b); err != nil {
					return err
				}
				w.addBlogger(b)
				return nil
			})
		case "posts":
			return true, w.each("post", w.post)
		case "links":
			return true, w.each("link", w.link)
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	return w.end()
}

// shard decodes one per-blogger shardDoc (<space>). Repeated
// <blogger> elements merge into the shard's one blogger, field by field.
func (w *walker) shard() error {
	if err := w.root("space"); err != nil {
		return err
	}
	b := &blog.Blogger{}
	err := w.children(func(se xml.StartElement) (bool, error) {
		switch se.Name.Local {
		case "blogger":
			return true, w.blogger(se, b)
		case "posts":
			return true, w.each("post", w.post)
		case "links":
			return true, w.each("link", w.link)
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	if err := w.end(); err != nil {
		return err
	}
	w.addBlogger(b)
	return nil
}

// addBlogger inserts a complete blogger. A rejection (empty or duplicate
// ID) is kept and reported by finish, so a malformed document still
// reports its syntax error first.
func (w *walker) addBlogger(b *blog.Blogger) {
	if err := w.c.AddBlogger(b); err != nil && w.err == nil {
		w.err = err
	}
}

// blogger decodes a <blogger> element into b.
func (w *walker) blogger(se xml.StartElement, b *blog.Blogger) error {
	for _, a := range se.Attr {
		if a.Name.Local == "id" {
			b.ID = blog.BloggerID(a.Value)
		}
	}
	return w.children(func(se xml.StartElement) (bool, error) {
		var err error
		switch se.Name.Local {
		case "name":
			b.Name, err = w.chardata()
		case "profile":
			b.Profile, err = w.chardata()
		case "friends":
			err = w.each("friend", func(xml.StartElement) error {
				f, err := w.chardata()
				b.Friends = append(b.Friends, blog.BloggerID(f))
				return err
			})
		default:
			return false, nil
		}
		return true, err
	})
}

// post decodes a <post> element and queues it.
func (w *walker) post(se xml.StartElement) error {
	p := &blog.Post{}
	for _, a := range se.Attr {
		switch a.Name.Local {
		case "id":
			p.ID = blog.PostID(a.Value)
		case "author":
			p.Author = blog.BloggerID(a.Value)
		case "posted":
			if err := p.Posted.UnmarshalText([]byte(a.Value)); err != nil {
				return err
			}
		case "trueDomain":
			p.TrueDomain = a.Value
		}
	}
	err := w.children(func(se xml.StartElement) (bool, error) {
		var err error
		switch se.Name.Local {
		case "title":
			p.Title, err = w.chardata()
		case "body":
			p.Body, err = w.chardata()
		case "comments":
			err = w.each("comment", func(se xml.StartElement) error {
				cm, err := w.comment(se)
				p.Comments = append(p.Comments, cm)
				return err
			})
		case "tags":
			err = w.each("tag", func(xml.StartElement) error {
				tag, err := w.chardata()
				p.Tags = append(p.Tags, tag)
				return err
			})
		default:
			return false, nil
		}
		return true, err
	})
	if err != nil {
		return err
	}
	w.posts = append(w.posts, p)
	return nil
}

// comment decodes a <comment> element.
func (w *walker) comment(se xml.StartElement) (blog.Comment, error) {
	var cm blog.Comment
	for _, a := range se.Attr {
		switch a.Name.Local {
		case "commenter":
			cm.Commenter = blog.BloggerID(a.Value)
		case "posted":
			if err := cm.Posted.UnmarshalText([]byte(a.Value)); err != nil {
				return cm, err
			}
		}
	}
	err := w.children(func(se xml.StartElement) (bool, error) {
		if se.Name.Local != "text" {
			return false, nil
		}
		var err error
		cm.Text, err = w.chardata()
		return true, err
	})
	return cm, err
}

// link decodes a <link> element and queues it.
func (w *walker) link(se xml.StartElement) error {
	var l blog.Link
	for _, a := range se.Attr {
		switch a.Name.Local {
		case "from":
			l.From = blog.BloggerID(a.Value)
		case "to":
			l.To = blog.BloggerID(a.Value)
		}
	}
	w.links = append(w.links, l)
	return w.d.Skip()
}

// finish adds the queued posts and links — after every blogger, as the
// references require — and validates the corpus.
func (w *walker) finish() (*blog.Corpus, error) {
	c := w.c
	if w.err != nil {
		return nil, fmt.Errorf("xmlstore: %w", w.err)
	}
	for _, p := range w.posts {
		if err := c.AddPost(p); err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
	}
	for _, l := range w.links {
		if err := c.AddLink(l.From, l.To); err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	return c, nil
}
