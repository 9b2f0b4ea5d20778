// Package codec holds the one byte-slice decoding core shared by every
// binary format of the repository (relations, approximation sets, the
// relation store). Each format reads through a Decoder with a sticky
// error: after the first failed read every subsequent read is a no-op
// returning the zero value, so decoding loops need a single error check
// at the end instead of one per field — and a truncated or corrupt
// stream can never be half-applied.
//
// The Decoder is deliberately dumb: it knows lengths and endianness
// (little, like every format here) but no format semantics. Callers own
// their sentinel errors — the error installed on a short read is the one
// passed to New, so errors.Is against the caller's sentinel keeps
// working unchanged.
package codec

import (
	"encoding/binary"
	"math"
)

// Decoder reads little-endian values off the front of a byte slice with
// a sticky error. The zero value is unusable; construct with New.
type Decoder struct {
	data  []byte
	pos   int
	err   error
	trunc error // installed as the sticky error on a short read
}

// New returns a Decoder over data. truncated is the error recorded when
// a read runs past the end of data (typically the caller's corrupt-format
// sentinel wrapped with a "truncated" message).
func New(data []byte, truncated error) *Decoder {
	return &Decoder{data: data, trunc: truncated}
}

// Err returns the sticky error, nil while all reads have succeeded.
func (d *Decoder) Err() error { return d.err }

// Pos returns the number of bytes consumed so far.
func (d *Decoder) Pos() int { return d.pos }

// Remaining returns the number of unread bytes. Length fields must be
// validated against it before allocating, so corrupt input can never
// reserve more memory than the stream actually delivers.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// Rest returns the unread tail of the data without consuming it, for
// formats that embed sub-formats with their own decoders.
func (d *Decoder) Rest() []byte { return d.data[d.pos:] }

// Skip advances over n bytes consumed by an embedded sub-format.
func (d *Decoder) Skip(n int) {
	if d.err != nil || n < 0 || n > d.Remaining() {
		d.fail()
		return
	}
	d.pos += n
}

// Bytes consumes and returns the next n bytes (aliasing the input
// slice), or nil after a failure.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil || n < 0 || n > d.Remaining() {
		d.fail()
		return nil
	}
	v := d.data[d.pos : d.pos+n]
	d.pos += n
	return v
}

// U8 consumes one byte.
func (d *Decoder) U8() byte {
	b := d.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.Bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 consumes a little-endian IEEE 754 float64.
func (d *Decoder) F64() float64 {
	return math.Float64frombits(d.U64())
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = d.trunc
	}
}
