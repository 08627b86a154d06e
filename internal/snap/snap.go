// Package snap implements the versioned, checksummed binary container
// used by engine checkpoints. A snapshot is
//
//	magic "MSNP" | version uint32 | payload length uint64 | payload | CRC32
//
// all little-endian, with the CRC (IEEE) covering magic, version,
// length, and payload. The payload itself is a flat sequence of typed
// primitives written by Writer and read back by Reader; the layout is
// defined entirely by the code that writes it, so the container stays
// schema-free and the version number gates layout changes.
//
// Reader is sticky-error and bounds-checked: any read past the payload,
// any length prefix larger than the remaining bytes, and any malformed
// container surface as typed errors (ErrBadMagic, ErrVersion,
// ErrChecksum, ErrCorrupt) — never a panic — so corrupt or truncated
// snapshots from a crashed writer are rejected cleanly.
package snap

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Magic identifies a snapshot container.
const Magic = "MSNP"

// Version is the current container layout version. Bump it whenever
// the payload layout written by the engine changes incompatibly; old
// snapshots are then rejected with ErrVersion rather than misread.
// Version 2 stores each RNG's state where version 1 stored its draw
// count. Version 3 has each part write itself through its Codec: a
// generator drops its job size, the allocator its word count, and the
// engine its copy of the fault stream's next event. Version 4 drops what
// restore derives: each job row's quota and estimated end, the
// busy-processor count, the kill total, and a schedule generator's held
// message.
const Version uint32 = 4

// Codec is implemented by every stateful part a snapshot carries.
// AppendState appends the part's state to w, and ReadState reads a
// state AppendState wrote into a part built with the same
// configuration, rejecting one that part could not have reached. A
// part writes the same fields whatever its state, or says in them
// which follow, so it reads back without a length prefix.
type Codec interface {
	AppendState(w *Writer)
	ReadState(r *Reader) error
}

// maxPayload bounds the declared payload length so a corrupt header
// cannot trigger a huge allocation before the checksum is verified.
const maxPayload = 1 << 32

// Typed container errors. They are wrapped with detail; match with
// errors.Is.
var (
	ErrBadMagic = errors.New("snap: bad magic (not a snapshot)")
	ErrVersion  = errors.New("snap: unsupported snapshot version")
	ErrChecksum = errors.New("snap: checksum mismatch")
	ErrCorrupt  = errors.New("snap: corrupt or truncated snapshot")
)

// headLen is the container framing ahead of the payload: magic,
// version and payload length.
const headLen = 4 + 4 + 8

// Framing is a container's size beyond its payload: the header and the
// CRC.
const Framing = headLen + 4

// Writer appends one container to a byte slice. NewWriter reserves the
// header at the slice's end, the primitives and Extend append the
// payload after it, and Finish patches the payload length into the
// header and appends the CRC. Bytes ahead of the container are never
// touched, so a caller can frame a container behind a prefix of its
// own, in a buffer it reuses across containers: a buffer with room for
// the container encodes without allocating.
type Writer struct {
	buf   []byte
	start int // offset of the container's header in buf
}

// NewWriter starts a container at the end of b.
func NewWriter(b []byte) *Writer {
	w := new(Writer)
	w.Reset(b)
	return w
}

// Reset starts a container at the end of b, as NewWriter does, in w.
// A caller that passes its Writer through an interface, which makes a
// new one escape to the heap, can keep one and reset it instead.
func (w *Writer) Reset(b []byte) {
	w.start = len(b)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	w.buf = binary.LittleEndian.AppendUint64(b, 0) // the length, patched by Finish
}

// U64 appends an unsigned 64-bit value.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64 by bit pattern (NaN and ±Inf round-trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// BytesFrom appends what a appends as a length-prefixed byte slice,
// which Reader.Bytes reads back. a appends in place, behind a length
// that is patched once a returns, so the encoding is never copied. On
// error the payload is left as it was.
func (w *Writer) BytesFrom(a encoding.BinaryAppender) error {
	at := len(w.buf)
	b, err := a.AppendBinary(binary.LittleEndian.AppendUint64(w.buf, 0))
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	w.buf = b
	return nil
}

// Extend appends n bytes to the payload and returns them for the
// caller to fill, in the primitives' encoding, with a record whose
// layout is fixed: one bounds-checked window in place of one append
// per field. The bytes are not cleared, so the caller writes every
// one.
func (w *Writer) Extend(n int) []byte {
	l := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:l+n]
	return w.buf[l : l+n : l+n]
}

// Len returns the current payload size in bytes.
func (w *Writer) Len() int { return len(w.buf) - w.start - headLen }

// Finish patches the payload length into the header, appends the CRC
// and returns the buffer, which ends with the whole container.
func (w *Writer) Finish() []byte {
	c := w.buf[w.start:]
	binary.LittleEndian.PutUint64(c[8:headLen], uint64(len(c)-headLen))
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(c))
}

// Reader decodes a container produced by Writer. All reads are
// sticky-error: after the first failure every subsequent read returns
// the zero value and Err reports the failure, so decode loops need a
// single error check at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader consumes the whole stream from r, validates the container
// framing and checksum, and returns a Reader positioned at the start of
// the payload. It returns ErrBadMagic, ErrVersion, ErrChecksum, or
// ErrCorrupt (wrapped with detail) on a malformed container.
func NewReader(r io.Reader) (*Reader, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return newReaderBytes(raw)
}

func newReaderBytes(raw []byte) (*Reader, error) {
	if len(raw) < Framing {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the container framing", ErrCorrupt, len(raw))
	}
	if string(raw[:4]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, raw[:4])
	}
	ver := binary.LittleEndian.Uint32(raw[4:8])
	if ver != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads version %d", ErrVersion, ver, Version)
	}
	plen := binary.LittleEndian.Uint64(raw[8:16])
	if plen > maxPayload || int(plen) != len(raw)-Framing {
		return nil, fmt.Errorf("%w: declared payload %d bytes, container holds %d", ErrCorrupt, plen, len(raw)-Framing)
	}
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	got := crc32.ChecksumIEEE(raw[:len(raw)-4])
	if got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	return &Reader{data: raw[headLen : len(raw)-4]}, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("u64 past end of payload (offset %d of %d)", r.off, len(r.data))
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail("bool past end of payload (offset %d of %d)", r.off, len(r.data))
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.fail("bool byte %#x at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte slice. The returned slice aliases
// the Reader's buffer; copy it if it must outlive the Reader.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("byte slice of %d exceeds %d remaining payload bytes", n, len(r.data)-r.off)
		return nil
	}
	p := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a non-negative element count bounded by max, for sizing
// slice allocations before their contents are decoded. A corrupt count
// fails the Reader instead of triggering a huge allocation.
func (r *Reader) Count(max int) int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(max) {
		r.fail("count %d outside [0, %d]", n, max)
		return 0
	}
	return int(n)
}
