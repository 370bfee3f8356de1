package core

import (
	"fmt"

	"megaphone/internal/binenc"
)

// This file gives the generic container types of the package — MapState and
// Either — implementations of the BinaryState/BinaryRec contracts, so that
// operators built from them (StateMachine word counts, Binary joins) ride
// the binary payload format without per-workload code. Support depends
// on the type parameters: scalar keys/values are encoded inline, struct
// values delegate to their own BinaryRec implementation, and anything else
// reports incapable via BinaryCapable, which makes the bin fall back to gob.

// scalarCapable reports whether v's dynamic type has an inline encoding.
func scalarCapable(v any) bool {
	switch v.(type) {
	case uint64, int64, int, uint32, int32, uint, string, bool, Time, [2]uint64:
		return true
	}
	return false
}

// appendScalar appends the inline encoding of a supported scalar. It must
// only be called for types scalarCapable accepts.
func appendScalar(buf []byte, v any) []byte {
	switch x := v.(type) {
	case uint64:
		return binenc.AppendUvarint(buf, x)
	case int64:
		return binenc.AppendVarint(buf, x)
	case int:
		return binenc.AppendVarint(buf, int64(x))
	case uint32:
		return binenc.AppendUvarint(buf, uint64(x))
	case int32:
		return binenc.AppendVarint(buf, int64(x))
	case uint:
		return binenc.AppendUvarint(buf, uint64(x))
	case string:
		return binenc.AppendString(buf, x)
	case bool:
		return binenc.AppendBool(buf, x)
	case Time:
		return binenc.AppendUvarint(buf, uint64(x))
	case [2]uint64:
		buf = binenc.AppendU64(buf, x[0])
		return binenc.AppendU64(buf, x[1])
	}
	panic(fmt.Sprintf("megaphone: appendScalar on unsupported type %T", v))
}

// decodeScalar fills *ptr from the front of data for a supported scalar.
func decodeScalar(ptr any, data []byte) ([]byte, error) {
	switch p := ptr.(type) {
	case *uint64:
		x, rest, err := binenc.Uvarint(data)
		*p = x
		return rest, err
	case *int64:
		x, rest, err := binenc.Varint(data)
		*p = x
		return rest, err
	case *int:
		x, rest, err := binenc.Varint(data)
		*p = int(x)
		return rest, err
	case *uint32:
		x, rest, err := binenc.Uvarint(data)
		*p = uint32(x)
		return rest, err
	case *int32:
		x, rest, err := binenc.Varint(data)
		*p = int32(x)
		return rest, err
	case *uint:
		x, rest, err := binenc.Uvarint(data)
		*p = uint(x)
		return rest, err
	case *string:
		x, rest, err := binenc.String(data)
		*p = x
		return rest, err
	case *bool:
		x, rest, err := binenc.Bool(data)
		*p = x
		return rest, err
	case *Time:
		x, rest, err := binenc.Uvarint(data)
		*p = Time(x)
		return rest, err
	case *[2]uint64:
		x0, rest, err := binenc.U64(data)
		if err != nil {
			return nil, err
		}
		x1, rest, err := binenc.U64(rest)
		p[0], p[1] = x0, x1
		return rest, err
	}
	return nil, fmt.Errorf("megaphone: decodeScalar on unsupported type %T", ptr)
}

// valueCapable reports whether *ptr (pointing at a map value) can encode:
// either a supported scalar or a capable BinaryRec.
func valueCapable(ptr any, v any) bool {
	if scalarCapable(v) {
		return true
	}
	br, ok := ptr.(BinaryRec)
	return ok && capable(br)
}

// appendValue appends a map value: scalar inline, BinaryRec by delegation.
func appendValue(buf []byte, ptr any, v any) []byte {
	if scalarCapable(v) {
		return appendScalar(buf, v)
	}
	return ptr.(BinaryRec).AppendBinaryRec(buf)
}

// decodeValue fills *ptr from the front of data.
func decodeValue(ptr any, data []byte) ([]byte, error) {
	if scalarOf(ptr) {
		return decodeScalar(ptr, data)
	}
	if br, ok := ptr.(BinaryRec); ok {
		return br.DecodeBinaryRec(data)
	}
	return nil, fmt.Errorf("megaphone: decodeValue on unsupported type %T", ptr)
}

// scalarOf reports whether ptr points at a supported scalar type.
func scalarOf(ptr any) bool {
	switch ptr.(type) {
	case *uint64, *int64, *int, *uint32, *int32, *uint, *string, *bool, *Time, *[2]uint64:
		return true
	}
	return false
}

// --- MapState ---

// BinaryCapable reports whether this MapState instantiation can use the
// binary codec: scalar keys and scalar-or-BinaryRec values.
func (m *MapState[K, W]) BinaryCapable() bool {
	var k K
	if !scalarCapable(k) {
		return false
	}
	var w W
	return valueCapable(&w, w)
}

// AppendBinaryState implements BinaryState for scalar-keyed maps. The
// common instantiations are encoded through concrete-typed loops; other
// capable instantiations go through the generic per-entry path, which
// boxes each key and value.
func (m *MapState[K, W]) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(m.M)))
	switch mm := any(m.M).(type) {
	case map[uint64]uint64:
		for k, v := range mm {
			buf = binenc.AppendUvarint(buf, k)
			buf = binenc.AppendUvarint(buf, v)
		}
	case map[uint64]int64:
		for k, v := range mm {
			buf = binenc.AppendUvarint(buf, k)
			buf = binenc.AppendVarint(buf, v)
		}
	case map[uint64][2]uint64:
		for k, v := range mm {
			buf = binenc.AppendUvarint(buf, k)
			buf = binenc.AppendU64(buf, v[0])
			buf = binenc.AppendU64(buf, v[1])
		}
	default:
		for k, w := range m.M {
			buf = appendScalar(buf, k)
			buf = appendValue(buf, &w, w)
		}
	}
	return buf
}

// DecodeBinaryState implements BinaryState.
func (m *MapState[K, W]) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 2) // every entry is >= 2 bytes
	if err != nil {
		return nil, err
	}
	m.M = make(map[K]W, n)
	switch mm := any(m.M).(type) {
	case map[uint64]uint64:
		for i := uint64(0); i < n; i++ {
			var k, v uint64
			if k, data, err = binenc.Uvarint(data); err != nil {
				return nil, err
			}
			if v, data, err = binenc.Uvarint(data); err != nil {
				return nil, err
			}
			mm[k] = v
		}
	case map[uint64]int64:
		for i := uint64(0); i < n; i++ {
			var k uint64
			var v int64
			if k, data, err = binenc.Uvarint(data); err != nil {
				return nil, err
			}
			if v, data, err = binenc.Varint(data); err != nil {
				return nil, err
			}
			mm[k] = v
		}
	case map[uint64][2]uint64:
		for i := uint64(0); i < n; i++ {
			var k uint64
			var v [2]uint64
			if k, data, err = binenc.Uvarint(data); err != nil {
				return nil, err
			}
			if v[0], data, err = binenc.U64(data); err != nil {
				return nil, err
			}
			if v[1], data, err = binenc.U64(data); err != nil {
				return nil, err
			}
			mm[k] = v
		}
	default:
		for i := uint64(0); i < n; i++ {
			var k K
			if data, err = decodeScalar(&k, data); err != nil {
				return nil, err
			}
			var w W
			if data, err = decodeValue(&w, data); err != nil {
				return nil, err
			}
			m.M[k] = w
		}
	}
	return data, nil
}

// --- Either ---

// BinaryCapable reports whether both sides of this Either instantiation
// implement BinaryRec.
func (e *Either[A, B]) BinaryCapable() bool {
	var a A
	ba, okA := any(&a).(BinaryRec)
	if !okA || !capable(ba) {
		return false
	}
	var b B
	bb, okB := any(&b).(BinaryRec)
	return okB && capable(bb)
}

// AppendBinaryRec implements BinaryRec by tagging the populated side and
// delegating to its BinaryRec implementation.
func (e *Either[A, B]) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendBool(buf, e.IsRight)
	if e.IsRight {
		return any(&e.Right).(BinaryRec).AppendBinaryRec(buf)
	}
	return any(&e.Left).(BinaryRec).AppendBinaryRec(buf)
}

// DecodeBinaryRec implements BinaryRec.
func (e *Either[A, B]) DecodeBinaryRec(data []byte) ([]byte, error) {
	isRight, data, err := binenc.Bool(data)
	if err != nil {
		return nil, err
	}
	e.IsRight = isRight
	if isRight {
		return any(&e.Right).(BinaryRec).DecodeBinaryRec(data)
	}
	return any(&e.Left).(BinaryRec).DecodeBinaryRec(data)
}
