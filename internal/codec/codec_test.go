package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTrunc = errors.New("test: truncated")

func TestDecodeSequence(t *testing.T) {
	var buf []byte
	buf = append(buf, 7)
	buf = binary.LittleEndian.AppendUint16(buf, 0xBEEF)
	buf = binary.LittleEndian.AppendUint32(buf, 0xDEADBEEF)
	buf = binary.LittleEndian.AppendUint64(buf, 0x0123456789ABCDEF)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(3.5))
	buf = append(buf, 'x', 'y')

	d := New(buf, errTrunc)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Errorf("F64 = %v", v)
	}
	if d.Remaining() != 2 {
		t.Errorf("Remaining = %d, want 2", d.Remaining())
	}
	if string(d.Bytes(2)) != "xy" {
		t.Error("Bytes(2) wrong")
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if d.Pos() != len(buf) {
		t.Errorf("Pos = %d, want %d", d.Pos(), len(buf))
	}
}

func TestStickyTruncation(t *testing.T) {
	d := New([]byte{1, 2}, errTrunc)
	if d.U32() != 0 {
		t.Error("short U32 must return 0")
	}
	if !errors.Is(d.Err(), errTrunc) {
		t.Errorf("Err = %v, want errTrunc", d.Err())
	}
	// Every later read is a zero-valued no-op.
	if d.U8() != 0 || d.U16() != 0 || d.U64() != 0 || d.F64() != 0 || d.Bytes(1) != nil {
		t.Error("reads after the sticky error must return zero values")
	}
	if d.Pos() != 0 {
		t.Errorf("failed reads must not consume: Pos = %d", d.Pos())
	}
}

func TestNegativeAndOversizedBytes(t *testing.T) {
	d := New([]byte{1, 2, 3}, errTrunc)
	if d.Bytes(-1) != nil || !errors.Is(d.Err(), errTrunc) {
		t.Error("negative length must fail sticky")
	}
	d = New([]byte{1, 2, 3}, errTrunc)
	if d.Bytes(4) != nil || !errors.Is(d.Err(), errTrunc) {
		t.Error("oversized length must fail sticky")
	}
}

func TestRestAndSkip(t *testing.T) {
	d := New([]byte{1, 2, 3, 4}, errTrunc)
	d.U8()
	if got := d.Rest(); len(got) != 3 || got[0] != 2 {
		t.Errorf("Rest = %v", got)
	}
	d.Skip(2)
	if d.Pos() != 3 || d.Err() != nil {
		t.Errorf("Skip: pos %d err %v", d.Pos(), d.Err())
	}
	d.Skip(5)
	if !errors.Is(d.Err(), errTrunc) {
		t.Error("oversized Skip must fail sticky")
	}
}
