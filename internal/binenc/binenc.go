// Package binenc provides the primitive append/decode helpers shared by
// implementations of core.BinaryState and core.BinaryRec: varint and
// fixed-width integers, strings, and booleans, all in the append-to-slice
// style of the standard library's encoding/binary Append functions.
//
// Encoders append to a caller-supplied buffer and return the extended slice;
// decoders consume from the front of a slice and return the remainder, so a
// marshal/unmarshal pair composes by threading the buffer through the
// fields in order. Decoders never panic on short or malformed input; they
// return ErrShort (possibly wrapped) so a corrupt migration payload surfaces
// as an error on the receiving worker rather than a crash.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShort reports a truncated or malformed encoding.
var ErrShort = errors.New("binenc: short or malformed encoding")

// Count decodes a length prefix and validates it against the bytes that
// remain: every counted element must consume at least minBytes bytes, so a
// corrupt prefix fails here instead of sizing a huge allocation. Use it
// before make(map/slice, n) in decoders.
func Count(data []byte, minBytes int) (uint64, []byte, error) {
	n, data, err := Uvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if minBytes > 0 && n > uint64(len(data))/uint64(minBytes) {
		return 0, nil, fmt.Errorf("count %d exceeds remaining %d bytes: %w", n, len(data), ErrShort)
	}
	return n, data, nil
}

// AppendUvarint appends x in unsigned varint encoding.
//
//megalint:hotpath
func AppendUvarint(buf []byte, x uint64) []byte {
	return binary.AppendUvarint(buf, x)
}

// Uvarint decodes an unsigned varint from the front of data.
func Uvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("uvarint: %w", ErrShort)
	}
	return x, data[n:], nil
}

// AppendVarint appends x in zig-zag signed varint encoding.
//
//megalint:hotpath
func AppendVarint(buf []byte, x int64) []byte {
	return binary.AppendVarint(buf, x)
}

// Varint decodes a zig-zag signed varint from the front of data.
func Varint(data []byte) (int64, []byte, error) {
	x, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("varint: %w", ErrShort)
	}
	return x, data[n:], nil
}

// AppendU64 appends x as a fixed-width little-endian 64-bit value. Fixed
// width trades a few bytes for branch-free decoding; use it for dense
// numeric arrays where most values are large or uniformly distributed.
//
//megalint:hotpath
func AppendU64(buf []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, x)
}

// U64 decodes a fixed-width little-endian 64-bit value.
func U64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("u64: %w", ErrShort)
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// AppendU32 appends x as a fixed-width little-endian 32-bit value.
//
//megalint:hotpath
func AppendU32(buf []byte, x uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, x)
}

// U32 decodes a fixed-width little-endian 32-bit value.
func U32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("u32: %w", ErrShort)
	}
	return binary.LittleEndian.Uint32(data), data[4:], nil
}

// AppendU64s appends a length-prefixed slice of fixed-width 64-bit values.
//
//megalint:hotpath
func AppendU64s(buf []byte, xs []uint64) []byte {
	buf = AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendU64(buf, x)
	}
	return buf
}

// U64s decodes a length-prefixed slice of fixed-width 64-bit values.
func U64s(data []byte) ([]uint64, []byte, error) {
	n, data, err := Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(data))/8 {
		return nil, nil, fmt.Errorf("u64s: need %d values: %w", n, ErrShort)
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i], data, _ = U64(data)
	}
	return xs, data, nil
}

// AppendString appends a length-prefixed string.
//
//megalint:hotpath
func AppendString(buf []byte, s string) []byte {
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// String decodes a length-prefixed string.
func String(data []byte) (string, []byte, error) {
	n, data, err := Uvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(data)) < n {
		return "", nil, fmt.Errorf("string: need %d bytes: %w", n, ErrShort)
	}
	return string(data[:n]), data[n:], nil
}

// AppendBool appends a boolean as one byte.
//
//megalint:hotpath
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Bool decodes a one-byte boolean.
func Bool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, fmt.Errorf("bool: %w", ErrShort)
	}
	return data[0] != 0, data[1:], nil
}
