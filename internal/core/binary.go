package core

import (
	"fmt"

	"megaphone/internal/binenc"
)

// This file holds the one record contract of the package — which record
// types can cross a process boundary, and their encoding — and gives the
// generic container types MapState, Either and KV implementations of the
// BinaryState/BinaryRec contracts, so that operators built from them
// (StateMachine word counts, Binary joins, keyed exchanges) ride the binary
// format without per-workload code. Support depends on the type parameters:
// scalars are encoded inline, struct types delegate to their own BinaryRec
// implementation, and any other instantiation reports incapable via
// BinaryCapable, which keeps it from leaving its process (see Operator and
// dataflow.Connect).

// wireRecCapable reports whether records of type R can cross a process
// boundary: either *R implements a capable BinaryRec, or R is one of the
// scalars appendWireRec encodes inline.
func wireRecCapable[R any]() bool {
	var z R
	switch p := any(&z).(type) {
	case BinaryRec:
		return capable(p)
	case *uint64, *int64, *int, *uint32, *int32, *uint, *string, *bool, *Time, *[2]uint64:
		return true
	}
	return false
}

// appendWireRec appends one record through its BinaryRec implementation or
// the scalar fast path (ptr is *R; converting a pointer to an interface
// does not allocate, which keeps the exchange encode path clean).
func appendWireRec(ptr any, buf []byte) []byte {
	switch p := ptr.(type) {
	case BinaryRec:
		return p.AppendBinaryRec(buf)
	case *uint64:
		return binenc.AppendUvarint(buf, *p)
	case *int64:
		return binenc.AppendVarint(buf, *p)
	case *int:
		return binenc.AppendVarint(buf, int64(*p))
	case *uint32:
		return binenc.AppendUvarint(buf, uint64(*p))
	case *int32:
		return binenc.AppendVarint(buf, int64(*p))
	case *uint:
		return binenc.AppendUvarint(buf, uint64(*p))
	case *string:
		return binenc.AppendString(buf, *p)
	case *bool:
		return binenc.AppendBool(buf, *p)
	case *Time:
		return binenc.AppendUvarint(buf, uint64(*p))
	case *[2]uint64:
		buf = binenc.AppendU64(buf, p[0])
		return binenc.AppendU64(buf, p[1])
	}
	panic(fmt.Sprintf("megaphone: record type %T cannot cross a process boundary", ptr))
}

// decodeWireRec fills *ptr from the front of data, mirroring appendWireRec.
func decodeWireRec(ptr any, data []byte) ([]byte, error) {
	switch p := ptr.(type) {
	case BinaryRec:
		return p.DecodeBinaryRec(data)
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
	return nil, fmt.Errorf("megaphone: record type %T cannot cross a process boundary", ptr)
}

// --- MapState ---

// BinaryCapable reports whether this MapState instantiation can use the
// binary codec: keys and values that can cross a process (wireRecCapable).
func (m *MapState[K, W]) BinaryCapable() bool { return wireRecCapable[K]() && wireRecCapable[W]() }

// AppendBinaryState implements BinaryState. The common instantiations are
// encoded through concrete-typed loops; other capable instantiations go
// through the record contract entry by entry.
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
		var k K
		var w W
		for k, w = range m.M {
			buf = appendWireRec(&k, buf)
			buf = appendWireRec(&w, buf)
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
			if data, err = decodeWireRec(&k, data); err != nil {
				return nil, err
			}
			var w W
			if data, err = decodeWireRec(&w, data); err != nil {
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

// --- KV ---

// BinaryCapable reports whether both fields of this KV instantiation can
// cross a process (wireRecCapable).
func (r *KV[K, V]) BinaryCapable() bool { return wireRecCapable[K]() && wireRecCapable[V]() }

// AppendBinaryRec implements BinaryRec: the key, then the value.
func (r *KV[K, V]) AppendBinaryRec(buf []byte) []byte {
	return appendWireRec(&r.Val, appendWireRec(&r.Key, buf))
}

// DecodeBinaryRec implements BinaryRec.
func (r *KV[K, V]) DecodeBinaryRec(data []byte) ([]byte, error) {
	data, err := decodeWireRec(&r.Key, data)
	if err != nil {
		return nil, err
	}
	return decodeWireRec(&r.Val, data)
}
