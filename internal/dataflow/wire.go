package dataflow

import (
	"fmt"
	"slices"

	"megaphone/internal/binenc"
)

// wireCodec serializes one edge's batches (a []T boxed as any) for
// cross-process delivery. enc appends the batch's encoding to buf; dec
// reconstructs a freshly allocated batch from a payload (which it must not
// retain — the wire buffer is transient). Both must be safe for concurrent
// use: encoding runs on every sending worker, decoding on every inbound
// connection's goroutine.
type wireCodec struct {
	enc func(data any, buf []byte) []byte
	dec func(payload []byte) (any, error)
}

// wireRec is the per-record binary contract, the structural twin of
// core.BinaryRec (declared here too so the runtime does not import core,
// which sits above it). Only types implementing it on their pointer
// receiver, and uint64, can cross a process boundary.
type wireRec interface {
	AppendBinaryRec(buf []byte) []byte
	DecodeBinaryRec(data []byte) ([]byte, error)
}

// wireCapableRec refines wireRec for generic types whose support depends on
// their type parameters (core.Either, core's routed envelope).
type wireCapableRec interface{ BinaryCapable() bool }

// wireCodecFor resolves the codec for element type T: per-record binary
// when *T implements the contract (and is capable), a fixed-width fast path
// for raw uint64 streams. Any other T gets the zero wireCodec: its records
// cannot cross processes, and Connect refuses to partition them in a mesh.
func wireCodecFor[T any]() wireCodec {
	var z T
	if br, ok := any(&z).(wireRec); ok {
		if c, refines := br.(wireCapableRec); !refines || c.BinaryCapable() {
			return wireCodec{enc: encodeWireRecs[T], dec: decodeWireRecs[T]}
		}
	}
	if _, ok := any(z).(uint64); ok {
		return wireCodec{enc: encodeWireU64s, dec: decodeWireU64s}
	}
	return wireCodec{}
}

// encodeWireRecs appends the batch record by record. The scratch it appends
// to is sized by recent batches (see Worker.trim), so a batch far larger
// than those — a burst of records after a stretch of small batches — would
// regrow it a quarter at a time; instead the first
// record that outgrows the scratch reserves the rest of the batch at the
// mean record size so far.
func encodeWireRecs[T any](data any, buf []byte) []byte {
	s := asBatch[T](data)
	start := len(buf)
	buf = binenc.AppendUvarint(buf, uint64(len(s)))
	for i := range s {
		had := cap(buf)
		buf = any(&s[i]).(wireRec).AppendBinaryRec(buf)
		if cap(buf) != had && i+1 < len(s) {
			buf = slices.Grow(buf, (len(buf)-start)/(i+1)*(len(s)-i-1))
		}
	}
	return buf
}

func decodeWireRecs[T any](payload []byte) (any, error) {
	n, payload, err := binenc.Count(payload, 1) // every record is >= 1 byte
	if err != nil {
		return nil, fmt.Errorf("batch length: %w", err)
	}
	out := make([]T, n)
	for i := range out {
		if payload, err = any(&out[i]).(wireRec).DecodeBinaryRec(payload); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(payload))
	}
	return out, nil
}

func encodeWireU64s(data any, buf []byte) []byte {
	return binenc.AppendU64s(buf, asBatch[uint64](data))
}

func decodeWireU64s(payload []byte) (any, error) {
	s, rest, err := binenc.U64s(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after batch", len(rest))
	}
	return s, nil
}
