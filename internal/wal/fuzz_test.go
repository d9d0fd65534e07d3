package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/sentiment"
)

// decodeBudget bounds what decoding n bytes of untrusted payload may
// allocate. Every decoded element costs at least one payload byte, so a
// decoder within budget never sized a make from a length field beyond
// what the payload can hold; the factor covers the widest decoded struct
// per encoded byte plus the corpus indexes.
func decodeBudget(n int) uint64 { return 256*uint64(n) + 64<<10 }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// corruptions returns a valid encoding together with every torn prefix
// of it and single-bit flips spread through it, the damage the recovery
// tests in fault_test.go inflict on segment and snapshot files.
func corruptions(valid []byte) [][]byte {
	out := [][]byte{valid}
	for n := 0; n < len(valid); n += 1 + len(valid)/16 {
		out = append(out, valid[:n])
	}
	for pos := 0; pos < len(valid); pos += 1 + len(valid)/8 {
		flipped := bytes.Clone(valid)
		flipped[pos] ^= 1 << (pos % 8)
		out = append(out, flipped)
	}
	return out
}

// FuzzDecodeOp: decodeOp returns an error, never panics, allocates
// within decodeBudget, and an op it accepts re-encodes to a payload that
// decodes to the same op.
func FuzzDecodeOp(f *testing.F) {
	for _, op := range testOps(0, 4) {
		p, err := appendOp(nil, &op)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range corruptions(p) {
			f.Add(c)
		}
	}
	f.Add([]byte{byte(OpPost), 1, 'p', 1, 'a', 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(OpBlogger), 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var op Op
		var err error
		if n := allocated(func() { op, err = decodeOp(payload) }); n > decodeBudget(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if err != nil {
			return
		}
		again, err := appendOp(nil, &op)
		if err != nil {
			t.Fatalf("accepted op does not re-encode: %v", err)
		}
		op2, err := decodeOp(again)
		if err != nil {
			t.Fatalf("re-encoded op rejected: %v", err)
		}
		if !reflect.DeepEqual(op, op2) {
			t.Fatalf("op changed across re-encoding:\n%+v\n%+v", op, op2)
		}
	})
}

// snapshotSeed is a checkpoint of corpusForSnapshot with a warm cache
// exercising every optional field.
func snapshotSeed(t testing.TB) *Snapshot {
	return &Snapshot{Index: 9, Seq: 2, Mutations: 11, Corpus: corpusForSnapshot(t), Cache: &influence.CacheState{
		Domains: []string{"d1", "d2"},
		Posts: []influence.PostFacetsState{
			{ID: "p1", Words: 2, Tokenized: true, HasPrepared: true, Shingles: []uint64{3, 1 << 60}, Indicator: 1,
				HasNov: true, Nov: 0.1, HasPosterior: true, Posterior: []float64{0.25, 0.75},
				Sentiments: []sentiment.Polarity{sentiment.Positive}},
			{ID: "p2", Words: 1},
		},
		NovOrder:    []blog.PostID{"p1", "p2"},
		GLBloggers:  []blog.BloggerID{"a", "b", "c"},
		GL:          []float64{0.5, 0.3, 0.2},
		InfBloggers: []blog.BloggerID{"a"},
		Influence:   []float64{1},
	}}
}

// frameSnapshot wraps payload in the snapshot file framing.
func frameSnapshot(payload []byte) []byte {
	buf := append([]byte(snapMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(buf[8:], snapVersion)
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// FuzzDecodeSnapshot: the fuzzer's bytes are a snapshot payload, decoded
// bare and inside a correct file frame (so mutations reach the payload
// decoder past the checksum), and also taken as a whole file. Each
// decode returns an error, never panics, and allocates within
// decodeBudget; a payload it accepts re-encodes to a canonical payload
// that decodes and re-encodes to itself.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*Snapshot{snapshotSeed(f), {Index: 1, Corpus: corpusForSnapshot(f)}} {
		p, err := encodeSnapshot(s)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range corruptions(p) {
			f.Add(c)
		}
		f.Add(frameSnapshot(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s *Snapshot
		var err error
		if n := allocated(func() { s, err = decodeSnapshot(payload) }); n > decodeBudget(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if _, ferr := decodeSnapshotFile(frameSnapshot(payload)); (ferr == nil) != (err == nil) {
			t.Fatalf("framed decode err = %v, bare decode err = %v", ferr, err)
		}
		if n := allocated(func() { _, _ = decodeSnapshotFile(payload) }); n > decodeBudget(len(payload)) {
			t.Fatalf("decoding a %d-byte file allocated %d", len(payload), n)
		}
		if err != nil {
			return
		}
		canon, err := encodeSnapshot(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		s2, err := decodeSnapshot(canon)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		again, err := encodeSnapshot(s2)
		if err != nil || !bytes.Equal(canon, again) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}
