package xmlstore

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"mass/internal/blog"
	"mass/internal/synth"
)

// readReflect is the corpus decoder as it was before the streaming
// walker: a reflective xml.Decoder.Decode into fileDoc, then assembly of
// the decoded slices. Its one documented difference from Read is that it
// stops at the end of the root element and ignores whatever follows.
// Kept only as the differential oracle.
func readReflect(r io.Reader) (*blog.Corpus, *xml.Decoder, error) {
	var doc fileDoc
	d := xml.NewDecoder(r)
	if err := d.Decode(&doc); err != nil {
		return nil, d, err
	}
	c, err := assembleReflect(doc.Bloggers, doc.Posts, doc.Links)
	return c, d, err
}

func assembleReflect(bloggers []blog.Blogger, posts []blog.Post, links []blog.Link) (*blog.Corpus, error) {
	c := blog.NewCorpus()
	for i := range bloggers {
		b := bloggers[i]
		if err := c.AddBlogger(&b); err != nil {
			return nil, err
		}
	}
	for i := range posts {
		p := posts[i]
		if err := c.AddPost(&p); err != nil {
			return nil, err
		}
	}
	for _, l := range links {
		if err := c.AddLink(l.From, l.To); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// cleanTail reports whether only whitespace, comments and processing
// instructions follow the root element the decoder stopped after.
func cleanTail(d *xml.Decoder) bool {
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case xml.Comment, xml.ProcInst:
		case xml.CharData:
			if len(bytes.Trim(t, " \t\r\n")) > 0 {
				return false
			}
		default:
			return false
		}
	}
}

// sameCorpus reports the first difference between two decoded corpora:
// every field of every blogger, post and link, and the per-author post
// order the corpus indexes were built in.
func sameCorpus(want, got *blog.Corpus) error {
	if !reflect.DeepEqual(want.Bloggers, got.Bloggers) {
		return fmt.Errorf("bloggers differ")
	}
	if !reflect.DeepEqual(want.Posts, got.Posts) {
		return fmt.Errorf("posts differ")
	}
	if !reflect.DeepEqual(want.Links, got.Links) {
		return fmt.Errorf("links differ: %v vs %v", want.Links, got.Links)
	}
	for id := range want.Bloggers {
		if !reflect.DeepEqual(want.PostsBy(id), got.PostsBy(id)) {
			return fmt.Errorf("PostsBy(%s) differs", id)
		}
		if want.TotalComments(id) != got.TotalComments(id) {
			return fmt.Errorf("TotalComments(%s) differs", id)
		}
	}
	return nil
}

// checkRead compares Read against the reflective oracle on one input:
// both must accept or both reject — except that Read alone rejects
// trailing content after the root — and accepted corpora must be equal.
func checkRead(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := Read(bytes.NewReader(data))
	want, d, werr := readReflect(bytes.NewReader(data))
	if werr == nil && !cleanTail(d) {
		if gerr == nil {
			t.Fatalf("Read accepted trailing content after the root:\n%q", data)
		}
		return
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Read err = %v, reflective err = %v\ninput %q", gerr, werr, data)
	}
	if gerr != nil {
		return
	}
	if err := sameCorpus(want, got); err != nil {
		t.Fatalf("%v\ninput %q", err, data)
	}
}

// readSeeds are hand-written documents exercising encoding/xml's field
// semantics: namespaces, repeated and unknown elements and attributes,
// nested markup inside text fields, CDATA, comments, elements out of
// schema order, bad timestamps and the prolog.
var readSeeds = []string{
	richSeed,
	"",
	"this is not xml",
	"<blogosphere/>",
	"<other/>",
	`<?xml version="1.0"?><!-- c --><!DOCTYPE x>junk<blogosphere a="1">text</blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><name>A</name><profile></profile></blogger></bloggers>
	  <posts><post id="p1" author="ghost"><title>t</title><body>b</body></post></posts><links></links></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"/><blogger id="a"/></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"/></bloggers><posts><post id="p" author="a" posted="yesterday"/></posts></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"/></bloggers><posts><post id="p" author="a" posted=""/></posts></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"/><blogger id="b"/></bloggers><links><link from="a" to="a"/></links></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><friends><friend>ghost</friend></friends></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger/></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"/></bloggers>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><blogosphere/>`,
	`<blogosphere>&unknown;</blogosphere>`,
	"<blogosphere/>\n  <!-- trailing comment --> <?pi x?>\n",
	// Trailing content after the root: Read rejects, the oracle does not.
	`<blogosphere><bloggers><blogger id="a"/></bloggers></blogosphere><blogosphere><bloggers><blogger id="b"/></bloggers></blogosphere>`,
	`<blogosphere></blogosphere><<<garbage`,
	`<blogosphere></blogosphere></blogosphere>`,
	`<blogosphere></blogosphere>text`,
	// Scanner edge cases: line-end normalization, character references,
	// directives, invalid bytes, unterminated markup, prefixed names and
	// a body longer than any read buffer.
	postDoc("a\r\nb\rc\r\r\nd", ` trueDomain="x\r\ny\rz"`),
	postDoc("<![CDATA[a\r\nb\r]]>\r", ""),
	postDoc("&#0;", ""),
	postDoc("&#xD800;", ""),
	postDoc("&#x110000;", ""),
	postDoc("&#65;&#x41;&#X41;", ""),
	postDoc("&#65;&#x42;&#x1F600;&#13;&#10;&#9;&lt;&gt;&amp;&apos;&quot;", ` trueDomain="&#65;&#xD;&#xA;&lt;"`),
	postDoc("&#;&#x;&#65", ""),
	`<!DOCTYPE x [ <!ENTITY e "v"> <!-- a > b --> <!ATTLIST a b CDATA '>'> ]><blogosphere/>`,
	`<!DOCTYPE x [ <!ENTITY e "v"> ]><blogosphere><bloggers><blogger id="a"><name>&e;</name></blogger></bloggers></blogosphere>`,
	`<!DOCTYPE x [ <!ENTITY e "v"> ]<blogosphere/>`,
	postDoc("ok \xff\xfe bytes", ""),
	postDoc("ok \xed\xa0\x80 surrogate", ""),
	postDoc("ok \xef\xbf\xbe nonchar", ""),
	postDoc("ok \x01 control", ""),
	postDoc("ok", ` trueDomain`),
	postDoc("ok", ` trueDomain=`),
	postDoc("ok", ` trueDomain=x`),
	postDoc("ok", ` trueDomain="<"`),
	postDoc("<!-- never closed", ""),
	postDoc("<!-- a -- b -->", ""),
	postDoc("<![CDATA[ runs to EOF", ""),
	`<blogosphere><a:x></b:x></blogosphere>`,
	`<blogosphere><a:x></a:x><a:b:c/></blogosphere>`,
	`<blogosphere><:x></:x><x:></x:><x:y></x:y></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><名前>x</名前><name>ü</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><·x/></blogger></bloggers></blogosphere>`,
	postDoc(strings.Repeat("long body ", 7000)+"&amp;"+strings.Repeat("ü", 1000), ""),
}

// postDoc is a one-blogger, one-post document whose post body is the raw
// markup body and whose <post> start tag ends with the raw attributes
// attrs.
func postDoc(body, attrs string) string {
	return `<?xml version="1.0" encoding="UTF-8"?><blogosphere><bloggers><blogger id="a"/></bloggers>` +
		`<posts><post id="p" author="a"` + attrs + `><body>` + body + `</body></post></posts></blogosphere>`
}

// richSeed is accepted by both decoders and exercises most field rules.
const richSeed = `<blogosphere><posts><post id="p" author="a" posted="2009-01-02T03:04:05Z" trueDomain="Sports">
	    <title>x<b>bold</b>y</title><body><![CDATA[<raw> & text]]>more<!--c--></body><body>second</body>
	    <comments><comment commenter="b" posted="2009-01-02T04:00:00+02:00"><text>hi</text><text>there</text><x/></comment>junk<tag>no</tag></comments>
	    <comments><comment commenter="a"/></comments><tags><tag>t1</tag><tag><i>i</i>t2</tag></tags><unknown><title>no</title></unknown>
	  </post></posts>
	  <bloggers><blogger x:id="b" id="a" xmlns:x="urn:x"><n:name xmlns:n="urn:n">Ann</n:name><friends><friend>b</friend><friend>a<k/></friend></friends></blogger>
	  <blogger id="b" unknown="1"><profile>p</profile><friends></friends><friends><friend>a</friend></friends><bloggers/></blogger>
	  <post id="stray" author="a"/></bloggers>
	  <links><link from="a" to="b"><junk/></link><link from="b" to="a"/><link from="a" to="b"/></links><blogger id="ignored"/>
	</blogosphere>`

// roundTripSeed is a document shaped like robustness_test.go's round-trip
// property inputs: text fields full of markup, entities and non-ASCII.
func roundTripSeed(tb testing.TB) []byte {
	c := blog.NewCorpus()
	if err := c.AddBlogger(&blog.Blogger{ID: "a", Name: `<b>&"name"</b>`, Profile: "profil ü\n\t tab"}); err != nil {
		tb.Fatal(err)
	}
	if err := c.AddBlogger(&blog.Blogger{ID: "b"}); err != nil {
		tb.Fatal(err)
	}
	if err := c.AddPost(&blog.Post{ID: "p", Author: "a", Title: "]]> <![CDATA[", Body: "a & b < c > d 'e' \"f\" 東京",
		Comments: []blog.Comment{{Commenter: "b", Text: "<!-- not a comment -->"}}}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// synthSeed is a small generated corpus in Write's layout.
func synthSeed(tb testing.TB) []byte {
	c, _, err := synth.Generate(synth.Config{Seed: 4, Bloggers: 12, Posts: 40})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadMatchesReflectiveOracle(t *testing.T) {
	c, err := Read(strings.NewReader(richSeed))
	if err != nil {
		t.Fatalf("rich seed rejected: %v", err)
	}
	p := c.Posts["p"]
	if p.Title != "xy" || p.Body != "second" || len(p.Comments) != 2 || p.Comments[0].Text != "there" ||
		len(p.Tags) != 2 || p.Tags[1] != "t2" || c.Bloggers["a"].Name != "Ann" || len(c.Links) != 3 {
		t.Fatalf("rich seed decoded wrong: %+v %+v", p, c.Bloggers["a"])
	}
	for _, s := range readSeeds {
		checkRead(t, []byte(s))
	}
	for _, seed := range [][]byte{roundTripSeed(t), synthSeed(t)} {
		if _, err := Read(bytes.NewReader(seed)); err != nil {
			t.Fatalf("generated seed rejected: %v", err)
		}
		checkRead(t, seed)
	}
	var fig bytes.Buffer
	if err := Write(&fig, blog.Figure1Corpus()); err != nil {
		t.Fatal(err)
	}
	checkRead(t, fig.Bytes())
}

// FuzzRead checks the streaming walker against the reflective decoder.
func FuzzRead(f *testing.F) {
	for _, s := range readSeeds {
		f.Add([]byte(s))
	}
	f.Add(roundTripSeed(f))
	f.Add(synthSeed(f))
	f.Fuzz(checkRead)
}

// TestReadRejectsTrailingContent: a second document, stray bytes or a
// stray end tag after the root element are errors, not silently dropped.
func TestReadRejectsTrailingContent(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, blog.Figure1Corpus()); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	second := `<blogosphere><bloggers><blogger id="late"/></bloggers></blogosphere>`
	for name, in := range map[string]string{
		"second document": doc + second,
		"garbage":         doc + "<<<garbage",
		"stray end tag":   doc + "</blogosphere>",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted trailing content", name)
		}
		if _, _, err := readReflect(strings.NewReader(in)); err != nil {
			t.Errorf("%s: the reflective decoder rejects it too (%v); the test no longer pins the fix", name, err)
		}
	}
	if _, err := Read(strings.NewReader(doc + "\n<!-- done -->\n")); err != nil {
		t.Fatalf("trailing whitespace and comments must be accepted: %v", err)
	}
	if _, err := Read(strings.NewReader(second + second)); !errors.Is(err, errTrailing) {
		t.Fatalf("second root: err = %v, want errTrailing", err)
	}

	dir := t.TempDir()
	if err := SaveShards(dir, blog.Figure1Corpus()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShards(dir); err != nil {
		t.Fatal(err)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "*.xml"))
	f, err := os.OpenFile(shards[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`<space><blogger id="late"/></space>`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadShards(dir); err == nil {
		t.Fatal("LoadShards accepted a shard file with a second root element")
	}
}

// TestLoadShardsMatchesReflectiveOracle: the per-blogger shard layout
// decodes to the same corpus as the reflective shardDoc decode, including
// a shard whose repeated <blogger> elements merge field by field.
func TestLoadShardsMatchesReflectiveOracle(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 6, Bloggers: 10, Posts: 40})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveShards(dir, c); err != nil {
		t.Fatal(err)
	}
	merged := `<space><blogger id="zz-merged"><name>first</name><friends><friend>blogger0000</friend></friends></blogger>
	  <blogger><profile>second</profile><friends><friend>blogger0001</friend></friends></blogger>
	  <posts><post id="zz-p" author="zz-merged"><body>b</body></post></posts>
	  <links><link from="zz-merged" to="blogger0000"/></links></space>`
	if err := os.WriteFile(filepath.Join(dir, "zz-merged.xml"), []byte(merged), 0o644); err != nil {
		t.Fatal(err)
	}

	names, _ := filepath.Glob(filepath.Join(dir, "*.xml"))
	var bloggers []blog.Blogger
	var posts []blog.Post
	var links []blog.Link
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var doc shardDoc
		if err := xml.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		bloggers = append(bloggers, doc.Blogger)
		posts = append(posts, doc.Posts...)
		links = append(links, doc.Links...)
	}
	want, err := assembleReflect(bloggers, posts, links)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCorpus(want, got); err != nil {
		t.Fatal(err)
	}
	if b := got.Bloggers["zz-merged"]; b.Name != "first" || b.Profile != "second" || len(b.Friends) != 2 {
		t.Fatalf("repeated <blogger> elements did not merge: %+v", b)
	}
}

// TestNameTablesMatchEncodingXML: for every BMP rune (the tables hold no
// others) and a sample above it, isName agrees with encoding/xml's Strict
// decoder on the rune as a name's first and as its second character.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(name string) bool {
		d := xml.NewDecoder(strings.NewReader("<" + name + "/>"))
		_, err := d.RawToken()
		return err == nil
	}
	var buf [utf8.UTFMax]byte
	for r := rune(0x80); r <= 0x10FFFF; r++ {
		if r > 0xFFFF && r%251 != 0 {
			continue
		}
		if !utf8.ValidRune(r) {
			continue
		}
		ch := string(buf[:utf8.EncodeRune(buf[:], r)])
		for _, name := range []string{ch, "a" + ch} {
			if got, want := isName([]byte(name)), accepts(name); got != want {
				t.Fatalf("isName(%q) = %v, encoding/xml accepts it: %v", name, got, want)
			}
		}
	}
}
