package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// TestRoundTrip writes every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U64(42)
	w.I64(-7)
	w.Int(123456)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
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
	w := NewWriter()
	w.U64(1)
	w.String("payload")
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	w := NewWriter()
	w.U64(7)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
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
	w := NewWriter()
	w.U64(1 << 60) // bogus length with no bytes behind it
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
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
	w := NewWriter()
	w.U64(42)
	w.String("seed")
	w.Bool(true)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:5])
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
	w := NewWriter()
	w.Int(10)
	w.Int(-3)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
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

func (w *refWriter) Flush(out io.Writer) error {
	head := make([]byte, 0, 16)
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, Version)
	head = binary.LittleEndian.AppendUint64(head, uint64(w.buf.Len()))
	crc := crc32.NewIEEE()
	crc.Write(head)
	crc.Write(w.buf.Bytes())
	if _, err := out.Write(head); err != nil {
		return err
	}
	if _, err := out.Write(w.buf.Bytes()); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := out.Write(tail[:])
	return err
}

// primWriter is the encoder surface shared by Writer and refWriter.
type primWriter interface {
	U64(uint64)
	I64(int64)
	Int(int)
	F64(float64)
	Bool(bool)
	Bytes([]byte)
	String(string)
	Flush(io.Writer) error
}

// Primitive kinds a fuzz program writes, one per encoder method.
const (
	opU64 = iota
	opI64
	opInt
	opF64
	opBool
	opBytes
	opString
	numOps
)

// fuzzValue is one primitive a fuzz program wrote: its kind, its bits
// (U64, I64, Int, F64 and Bool) or its bytes (Bytes and String).
type fuzzValue struct {
	op   int
	bits uint64
	data []byte
}

// decodeProgram turns fuzz bytes into a sequence of primitives: an
// opcode byte, then eight little-endian bytes for a word, one byte for
// a Bool, or a length byte (mod 64) and that many bytes for Bytes and
// String. Missing trailing bytes read as zero.
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
		default:
			v.bits = binary.LittleEndian.Uint64(take(8))
		}
		vals = append(vals, v)
	}
	return vals
}

// writeProgram encodes vals with w and returns the flushed container.
func writeProgram(t *testing.T, w primWriter, vals []fuzzValue) []byte {
	t.Helper()
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
		case opBytes:
			w.Bytes(v.data)
		case opString:
			w.String(string(v.data))
		}
	}
	var out bytes.Buffer
	if err := w.Flush(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzWriterMatchesReference drives Writer — bare and after a Grow of
// a fuzzed size — and refWriter with the same random primitive
// sequence. All three must flush byte-identical containers, and Reader
// must read every value back.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(8), []byte{opU64, 1, 2, 3, 4, 5, 6, 7, 8, opBool, 1})
	f.Add(uint16(3), []byte{opI64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, opInt, 9,
		opF64, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, opBytes, 3, 'a', 'b', 'c', opString, 70, 'x'})
	f.Add(uint16(1000), bytes.Repeat([]byte{opString, 5, 'h', 'e', 'l', 'l', 'o', opBool, 0}, 40))
	f.Fuzz(func(t *testing.T, grow uint16, prog []byte) {
		vals := decodeProgram(prog)
		want := writeProgram(t, &refWriter{}, vals)
		if got := writeProgram(t, NewWriter(), vals); !bytes.Equal(got, want) {
			t.Fatalf("Writer container differs from the reference:\n got %x\nwant %x", got, want)
		}
		grown := NewWriter()
		grown.Grow(int(grow))
		if got := writeProgram(t, grown, vals); !bytes.Equal(got, want) {
			t.Fatalf("Writer after Grow(%d) differs from the reference:\n got %x\nwant %x", grow, got, want)
		}

		r, err := NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			var ok bool
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
