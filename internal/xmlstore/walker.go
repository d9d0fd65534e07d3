package xmlstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"mass/internal/blog"
)

// walker decodes corpus documents from the tokens of a scanner, which
// keeps encoding/xml's Strict well-formedness checks (end tags must match)
// without its per-byte reader or the reflection and intermediate value
// slices of a reflective decode. It reproduces what xml.Unmarshal would do
// with the fileDoc and shardDoc schemas:
//
//   - elements and attributes match on their local name, in any
//     namespace;
//   - a text field is the concatenated character data directly inside
//     its element; child elements are skipped;
//   - unknown elements and attributes are ignored, and a repeated field
//     element or attribute overwrites (slices append);
//   - time.Time attributes decode through UnmarshalText.
//
// Every field is a fresh string: nothing the corpus keeps aliases the
// input buffer, so the buffer is garbage once decoding returns.
//
// Bloggers go into the corpus as soon as they are complete. Posts and
// links are queued (as pointers, not copies) until the whole input is
// read, because a post may name a blogger declared later in the document.
type walker struct {
	s     scanner      // the current input
	c     *blog.Corpus // the corpus being built, across inputs
	text  []byte       // decoding scratch, reused by every field
	posts []*blog.Post
	links []blog.Link
	err   error // first blogger the corpus rejected
}

// startTag is the start tag a children callback is handed. Its slices
// are valid until the next token is read.
type startTag struct {
	local []byte
	attrs []attr
}

// errTrailing reports content after the root element.
var errTrailing = errors.New("content after the root element")

// root consumes the prolog and the root start tag, which must be named
// name. As with xml.Decoder.Decode, any character data, comments,
// processing instructions or directives before it are ignored.
func (w *walker) root(name string) error {
	for {
		k, err := w.s.next()
		if err != nil {
			return err
		}
		switch k {
		case kindEOF:
			return io.EOF
		case kindStart:
			if string(w.s.local) != name {
				return fmt.Errorf("expected element type <%s> but have <%s>", name, w.s.local)
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
		k, err := w.s.next()
		if err != nil {
			return err
		}
		switch k {
		case kindEOF:
			return nil
		case kindComment:
		case kindText:
			w.text = appendText(w.text[:0], w.s.text)
			if len(bytes.Trim(w.text, " \t\r\n")) > 0 {
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
func (w *walker) children(fn func(se startTag) (bool, error)) error {
	for {
		k, err := w.s.next()
		if err != nil {
			return err
		}
		switch k {
		case kindStart:
			consumed, err := fn(startTag{w.s.local, w.s.attrs})
			if err != nil {
				return err
			}
			if !consumed {
				if err := w.skip(); err != nil {
					return err
				}
			}
		case kindEnd:
			return nil
		}
	}
}

// skip consumes the element whose start tag was just read, through its
// end tag.
func (w *walker) skip() error {
	for depth := 0; ; {
		k, err := w.s.next()
		if err != nil {
			return err
		}
		switch k {
		case kindStart:
			depth++
		case kindEnd:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

// each is children restricted to elements named name.
func (w *walker) each(name string, fn func(se startTag) error) error {
	return w.children(func(se startTag) (bool, error) {
		if string(se.local) != name {
			return false, nil
		}
		return true, fn(se)
	})
}

// chardata returns the character data directly inside the element whose
// start tag was just read, consuming it through its end tag. The common
// case, one run that needs no decoding, is copied straight from the input.
func (w *walker) chardata() (string, error) {
	w.text = w.text[:0]
	var only []byte // the one plain run so far, not yet copied to w.text
	for {
		k, err := w.s.next()
		if err != nil {
			return "", err
		}
		switch k {
		case kindStart:
			if err := w.skip(); err != nil {
				return "", err
			}
		case kindText:
			t := w.s.text
			if t.plain && only == nil && len(w.text) == 0 {
				only = t.raw
				continue
			}
			w.text = appendText(append(w.text, only...), t)
			only = nil
		case kindEnd:
			if only != nil {
				return string(only), nil
			}
			return string(w.text), nil
		}
	}
}

// value returns the decoded value of an attribute, in w.text's scratch
// unless it needs no decoding. It is valid until the next field decodes.
func (w *walker) value(a attr) []byte {
	if a.value.plain {
		return a.value.raw
	}
	w.text = appendText(w.text[:0], a.value)
	return w.text
}

// document decodes a fileDoc (<blogosphere>).
func (w *walker) document() error {
	if err := w.root("blogosphere"); err != nil {
		return err
	}
	err := w.children(func(se startTag) (bool, error) {
		switch string(se.local) {
		case "bloggers":
			return true, w.each("blogger", func(se startTag) error {
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
	err := w.children(func(se startTag) (bool, error) {
		switch string(se.local) {
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
func (w *walker) blogger(se startTag, b *blog.Blogger) error {
	for _, a := range se.attrs {
		if string(a.local) == "id" {
			b.ID = blog.BloggerID(w.value(a))
		}
	}
	return w.children(func(se startTag) (bool, error) {
		var err error
		switch string(se.local) {
		case "name":
			b.Name, err = w.chardata()
		case "profile":
			b.Profile, err = w.chardata()
		case "friends":
			err = w.each("friend", func(startTag) error {
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
func (w *walker) post(se startTag) error {
	p := &blog.Post{}
	for _, a := range se.attrs {
		switch string(a.local) {
		case "id":
			p.ID = blog.PostID(w.value(a))
		case "author":
			p.Author = blog.BloggerID(w.value(a))
		case "posted":
			if err := p.Posted.UnmarshalText(w.value(a)); err != nil {
				return err
			}
		case "trueDomain":
			p.TrueDomain = string(w.value(a))
		}
	}
	err := w.children(func(se startTag) (bool, error) {
		var err error
		switch string(se.local) {
		case "title":
			p.Title, err = w.chardata()
		case "body":
			p.Body, err = w.chardata()
		case "comments":
			err = w.each("comment", func(se startTag) error {
				cm, err := w.comment(se)
				p.Comments = append(p.Comments, cm)
				return err
			})
		case "tags":
			err = w.each("tag", func(startTag) error {
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
func (w *walker) comment(se startTag) (blog.Comment, error) {
	var cm blog.Comment
	for _, a := range se.attrs {
		switch string(a.local) {
		case "commenter":
			cm.Commenter = blog.BloggerID(w.value(a))
		case "posted":
			if err := cm.Posted.UnmarshalText(w.value(a)); err != nil {
				return cm, err
			}
		}
	}
	err := w.children(func(se startTag) (bool, error) {
		if string(se.local) != "text" {
			return false, nil
		}
		var err error
		cm.Text, err = w.chardata()
		return true, err
	})
	return cm, err
}

// link decodes a <link> element and queues it.
func (w *walker) link(se startTag) error {
	var l blog.Link
	for _, a := range se.attrs {
		switch string(a.local) {
		case "from":
			l.From = blog.BloggerID(w.value(a))
		case "to":
			l.To = blog.BloggerID(w.value(a))
		}
	}
	w.links = append(w.links, l)
	return w.skip()
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
