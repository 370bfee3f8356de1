package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"megaphone/internal/binenc"
)

// This file implements the BinaryRec contract for the record types that
// cross worker boundaries inside a megaphone operator — the control Move,
// the routed data envelope, and the migrating bin — which is what lets their
// exchange edges span processes (dataflow's wire codecs discover these
// methods structurally).

// AppendBinaryRec implements BinaryRec.
func (m *Move) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(m.Bin))
	buf = binenc.AppendUvarint(buf, uint64(m.Worker))
	return binenc.AppendUvarint(buf, uint64(m.RestoreEpoch))
}

// DecodeBinaryRec implements BinaryRec.
func (m *Move) DecodeBinaryRec(data []byte) ([]byte, error) {
	bin, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding Move.Bin: %w", err)
	}
	w, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding Move.Worker: %w", err)
	}
	re, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding Move.RestoreEpoch: %w", err)
	}
	m.Bin, m.Worker, m.RestoreEpoch = int(bin), int(w), Time(re)
	return data, nil
}

// AppendBinaryRec implements BinaryRec for a bin leaving its process: the
// bin and destination, then the sender's codec's encoding of the bin behind
// a fixed-width length, encoded in place — the length is patched in once the
// codec has run, so the bin is never staged in a buffer of its own. A codec
// failure is a programming error and panics, as on the checkpoint path.
func (m *binMsg[R, S]) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(m.Bin))
	buf = binenc.AppendUvarint(buf, uint64(m.To))
	at := len(buf)
	buf = binenc.AppendU32(buf, 0)
	buf, err := m.codec.EncodeBin(m.State, buf)
	if err != nil {
		panic(fmt.Sprintf("megaphone: encoding bin %d for worker %d: %v", m.Bin, m.To, err))
	}
	n := len(buf) - at - 4
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("megaphone: bin %d encodes to %d bytes, beyond one record's 4 GiB", m.Bin, n))
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(n))
	return buf
}

// DecodeBinaryRec implements BinaryRec. The payload is copied out for S to
// decode: the bin is typically installed on a later scheduling than the
// decode, and the wire buffer is transient.
func (m *binMsg[R, S]) DecodeBinaryRec(data []byte) ([]byte, error) {
	bin, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding migrating bin number: %w", err)
	}
	to, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding migrating bin %d destination: %w", bin, err)
	}
	n, data, err := binenc.U32(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding migrating bin %d length: %w", bin, err)
	}
	if uint64(n) > uint64(len(data)) {
		return nil, fmt.Errorf("megaphone: migrating bin %d claims %d bytes, record holds %d", bin, n, len(data))
	}
	*m = binMsg[R, S]{Bin: int(bin), To: int(to), payload: append([]byte(nil), data[:n]...)}
	return data[n:], nil
}

// BinaryCapable reports whether this routed instantiation can use the
// binary wire encoding (the record type must be binary-capable or scalar).
func (r *routed[R]) BinaryCapable() bool { return wireRecCapable[R]() }

// AppendBinaryRec implements BinaryRec for the routed envelope: the
// destination worker, the bin, then the record.
func (r *routed[R]) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(r.To))
	buf = binenc.AppendUvarint(buf, uint64(r.Bin))
	return appendWireRec(&r.Rec, buf)
}

// DecodeBinaryRec implements BinaryRec.
func (r *routed[R]) DecodeBinaryRec(data []byte) ([]byte, error) {
	to, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding routed.To: %w", err)
	}
	bin, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding routed.Bin: %w", err)
	}
	r.To, r.Bin = int32(to), int32(bin)
	data, err = decodeWireRec(&r.Rec, data)
	if err != nil {
		return nil, fmt.Errorf("megaphone: decoding routed record: %w", err)
	}
	return data, nil
}
