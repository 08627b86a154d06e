package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// TestRoundTrip writes every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	w.U64(42)
	w.I64(-7)
	w.Int(123456)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	if err := w.BytesFrom(rawBytes{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	w.String("hello")

	r, err := NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// container returns a small valid snapshot for corruption tests.
func container(t *testing.T) []byte {
	t.Helper()
	w := NewWriter(nil)
	w.U64(1)
	w.String("payload")
	return w.Finish()
}

func TestBadMagic(t *testing.T) {
	raw := container(t)
	raw[0] = 'X'
	if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	raw := container(t)
	raw[4] = 99
	if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	raw := container(t)
	raw[len(raw)-6] ^= 0x40 // flip a payload bit
	if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestTruncated(t *testing.T) {
	raw := container(t)
	for cut := 0; cut < len(raw); cut++ {
		_, err := NewReader(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("truncation to %d: untyped error %v", cut, err)
		}
	}
}

// TestStickyReads verifies reading past the payload end is a typed
// error, not a panic, and subsequent reads stay failed.
func TestStickyReads(t *testing.T) {
	w := NewWriter(nil)
	w.U64(7)
	r, err := NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	r.U64()
	if got := r.U64(); got != 0 {
		t.Errorf("read past end = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
	if got := r.String(); got != "" {
		t.Errorf("sticky String = %q", got)
	}
}

// TestHugeLengthPrefix: a byte-slice length pointing past the payload
// must fail, not allocate or slice out of range.
func TestHugeLengthPrefix(t *testing.T) {
	w := NewWriter(nil)
	w.U64(1 << 60) // bogus length with no bytes behind it
	r, err := NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("Bytes = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
}

// FuzzReader throws arbitrary bytes at the container framing and, when
// a container is accepted, at every primitive decoder. Nothing here may
// panic; every rejection must carry one of the typed sentinels.
func FuzzReader(f *testing.F) {
	w := NewWriter(nil)
	w.U64(42)
	w.String("seed")
	w.Bool(true)
	seed := w.Finish()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:5])
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped container rejection: %v", err)
			}
			return
		}
		r.U64()
		_ = r.String()
		r.Count(16)
		r.F64()
		r.Bool()
		_ = r.Bytes()
		if err := r.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

func TestCountBounds(t *testing.T) {
	w := NewWriter(nil)
	w.Int(10)
	w.Int(-3)
	r, err := NewReader(bytes.NewReader(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Count(100); got != 10 {
		t.Errorf("Count = %d", got)
	}
	if got := r.Count(100); got != 0 || r.Err() == nil {
		t.Errorf("negative count accepted: %d, err %v", got, r.Err())
	}
}

// refWriter is the reference encoder Writer is checked against: one
// bytes.Buffer write per primitive and a hash.Hash32 CRC. It is the
// straightforward form of the container layout in the package comment.
type refWriter struct {
	buf bytes.Buffer
	tmp [8]byte
}

func (w *refWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.tmp[:], v)
	w.buf.Write(w.tmp[:])
}

func (w *refWriter) I64(v int64) { w.U64(uint64(v)) }

func (w *refWriter) Int(v int) { w.U64(uint64(int64(v))) }

func (w *refWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *refWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf.WriteByte(b)
}

func (w *refWriter) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.buf.Write(p)
}

func (w *refWriter) String(s string) {
	w.U64(uint64(len(s)))
	w.buf.WriteString(s)
}

// container returns the framed container: header, payload and CRC,
// the CRC from a hash.Hash32.
func (w *refWriter) container() []byte {
	head := make([]byte, 0, 16)
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, Version)
	head = binary.LittleEndian.AppendUint64(head, uint64(w.buf.Len()))
	crc := crc32.NewIEEE()
	crc.Write(head)
	crc.Write(w.buf.Bytes())
	out := append(head, w.buf.Bytes()...)
	return binary.LittleEndian.AppendUint32(out, crc.Sum32())
}

// rawBytes appends itself, so Writer.BytesFrom writes the field
// refWriter.Bytes does.
type rawBytes []byte

func (p rawBytes) AppendBinary(b []byte) ([]byte, error) { return append(b, p...), nil }

// primWriter is the encoder surface shared by Writer and refWriter.
type primWriter interface {
	U64(uint64)
	I64(int64)
	Int(int)
	F64(float64)
	Bool(bool)
	String(string)
}

// Primitive kinds a fuzz program writes, one per encoder method. Two
// take a different route on each side: Writer writes opBytes through
// BytesFrom and refWriter through Bytes, and opWords is a run of words
// that Writer writes through one Extend window and refWriter one U64
// at a time.
const (
	opU64 = iota
	opI64
	opInt
	opF64
	opBool
	opBytes
	opString
	opWords
	numOps
)

// fuzzValue is one primitive a fuzz program wrote: its kind, its bits
// (U64, I64, Int, F64 and Bool), its bytes (Bytes and String) or its
// words.
type fuzzValue struct {
	op    int
	bits  uint64
	data  []byte
	words []uint64
}

// decodeProgram turns fuzz bytes into a sequence of primitives: an
// opcode byte, then eight little-endian bytes for a word, one byte for
// a Bool, a length byte (mod 64) and that many bytes for Bytes and
// String, or a count byte (mod 8) and that many words. Missing trailing
// bytes read as zero.
func decodeProgram(prog []byte) []fuzzValue {
	take := func(n int) []byte {
		p := make([]byte, n)
		prog = prog[copy(p, prog):]
		return p
	}
	var vals []fuzzValue
	for len(prog) > 0 {
		v := fuzzValue{op: int(take(1)[0]) % numOps}
		switch v.op {
		case opBool:
			v.bits = uint64(take(1)[0] & 1)
		case opBytes, opString:
			v.data = take(int(take(1)[0] % 64))
		case opWords:
			v.words = make([]uint64, take(1)[0]%8)
			for i := range v.words {
				v.words[i] = binary.LittleEndian.Uint64(take(8))
			}
		default:
			v.bits = binary.LittleEndian.Uint64(take(8))
		}
		vals = append(vals, v)
	}
	return vals
}

// writeProgram encodes vals with w.
func writeProgram(w primWriter, vals []fuzzValue) {
	for _, v := range vals {
		switch v.op {
		case opU64:
			w.U64(v.bits)
		case opI64:
			w.I64(int64(v.bits))
		case opInt:
			w.Int(int(int64(v.bits)))
		case opF64:
			w.F64(math.Float64frombits(v.bits))
		case opBool:
			w.Bool(v.bits == 1)
		case opString:
			w.String(string(v.data))
		case opBytes:
			switch w := w.(type) {
			case *Writer:
				if err := w.BytesFrom(rawBytes(v.data)); err != nil {
					panic(err)
				}
			case *refWriter:
				w.Bytes(v.data)
			}
		case opWords:
			switch w := w.(type) {
			case *Writer:
				p := w.Extend(8 * len(v.words))
				for i, x := range v.words {
					binary.LittleEndian.PutUint64(p[8*i:], x)
				}
			case *refWriter:
				for _, x := range v.words {
					w.U64(x)
				}
			}
		}
	}
}

// programAppender appends a program's container, as an engine's
// AppendBinary appends its snapshot.
type programAppender []fuzzValue

func (p programAppender) AppendBinary(b []byte) ([]byte, error) {
	w := NewWriter(b)
	writeProgram(w, p)
	return w.Finish(), nil
}

// FuzzWriterMatchesReference drives Writer and refWriter with the same
// random primitive sequence, record windows included. Writer must give
// the reference's container bytes when it starts from nothing, when it
// appends behind a prefix into a buffer with fuzzed spare room (leaving
// the prefix as it was, and allocating nothing when the room suffices),
// and when BytesFrom nests the container in another. Reader must read
// every value back.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(5), uint16(8), []byte{opU64, 1, 2, 3, 4, 5, 6, 7, 8, opBool, 1})
	f.Add(uint8(0), uint16(3), []byte{opI64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, opInt, 9,
		opF64, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, opBytes, 3, 'a', 'b', 'c', opString, 70, 'x'})
	f.Add(uint8(17), uint16(1000), bytes.Repeat([]byte{opString, 5, 'h', 'e', 'l', 'l', 'o', opBool, 0}, 40))
	f.Add(uint8(3), uint16(200), []byte{opWords, 3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, opWords, 0, opBool, 1, opWords, 7})
	f.Fuzz(func(t *testing.T, prefixLen uint8, room uint16, prog []byte) {
		vals := decodeProgram(prog)
		ref := &refWriter{}
		writeProgram(ref, vals)
		want := ref.container()

		w := NewWriter(nil)
		writeProgram(w, vals)
		if got := w.Finish(); !bytes.Equal(got, want) {
			t.Fatalf("Writer container differs from the reference:\n got %x\nwant %x", got, want)
		}

		prefix := bytes.Repeat([]byte{0xa5}, int(prefixLen))
		buf := append(make([]byte, 0, len(prefix)+int(room)), prefix...)
		w = NewWriter(buf)
		writeProgram(w, vals)
		got := w.Finish()
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("Writer behind a %d-byte prefix with %d bytes of room wrote\n%x\nwant the prefix, then\n%x",
				prefixLen, room, got, want)
		}
		if int(room) >= len(want) && cap(buf) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("Writer reallocated a buffer with %d bytes of room for a %d-byte container", room, len(want))
		}

		outer := NewWriter(nil)
		if err := outer.BytesFrom(programAppender(vals)); err != nil {
			t.Fatal(err)
		}
		nested := &refWriter{}
		nested.Bytes(want)
		if got, want := outer.Finish(), nested.container(); !bytes.Equal(got, want) {
			t.Fatalf("BytesFrom container differs from the reference:\n got %x\nwant %x", got, want)
		}

		r, err := NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			ok := true
			switch v.op {
			case opU64:
				ok = r.U64() == v.bits
			case opI64:
				ok = r.I64() == int64(v.bits)
			case opInt:
				ok = r.Int() == int(int64(v.bits))
			case opF64:
				ok = math.Float64bits(r.F64()) == v.bits
			case opBool:
				ok = r.Bool() == (v.bits == 1)
			case opBytes:
				ok = bytes.Equal(r.Bytes(), v.data)
			case opString:
				ok = r.String() == string(v.data)
			case opWords:
				for _, x := range v.words {
					ok = ok && r.U64() == x
				}
			}
			if !ok {
				t.Fatalf("value %d (op %d) did not read back: err %v", i, v.op, r.Err())
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("after reading every value: err %v, %d bytes left", r.Err(), r.Remaining())
		}
	})
}

// failingAppender appends some bytes, then fails.
type failingAppender struct{}

func (failingAppender) AppendBinary(b []byte) ([]byte, error) {
	return append(b, "partial"...), errors.New("appender failed")
}

// TestBytesFromLeavesPayloadOnError: an appender's error is returned,
// and the container goes on as if BytesFrom had not been called.
func TestBytesFromLeavesPayloadOnError(t *testing.T) {
	w := NewWriter(nil)
	w.U64(7)
	if err := w.BytesFrom(failingAppender{}); err == nil || err.Error() != "appender failed" {
		t.Fatalf("BytesFrom error = %v, want the appender's", err)
	}
	w.Bool(true)
	ref := &refWriter{}
	ref.U64(7)
	ref.Bool(true)
	if got, want := w.Finish(), ref.container(); !bytes.Equal(got, want) {
		t.Fatalf("container after a failed BytesFrom:\n got %x\nwant %x", got, want)
	}
}
