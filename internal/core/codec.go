package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"megaphone/internal/binenc"
)

// binMsg is a migration message: one bin in flight from its old owner to
// its new owner, timestamped with the configuration command's logical time,
// and one record of the state edge. It carries the bin itself, and the
// exchange delivers it by reference to a worker of the sender's process, as
// timely's in-process channels move owned data. Only where it crosses to
// another process is the bin serialized: the edge's wire codec has the
// sender's codec encode it straight into the outgoing record
// (AppendBinaryRec), and the receiving process's decoder leaves the bytes in
// payload for S to decode. A moving bin is thus one wire record, never split
// and never batched with another bin.
type binMsg[R, S any] struct {
	Bin   int
	To    int             // destination worker (drives the exchange)
	State *BinState[R, S] // the bin; nil on a message decoded from the wire

	codec   Codec  // the sender's Config.Transfer, which encodes State for the wire
	payload []byte // the codec's serialization of the bin, on a decoded message
}

// Codec serializes bins for checkpoints and for migrations that cross a
// process boundary; a bin moving between workers of one process is handed
// over without it (see binMsg). There is one codec
// in the tree (TransferBinary, which Config.Transfer == nil selects); the
// interface remains so a measurement can wrap it in a decorator that counts
// bins and bytes. Every worker of an execution shares the codec value, so
// implementations must be safe for concurrent use.
type Codec interface {
	// Name identifies the payload format in checkpoint manifests.
	Name() string
	// EncodeBin appends bin's serialized form to buf and returns the
	// extended slice (buf may be nil).
	EncodeBin(bin Migratable, buf []byte) ([]byte, error)
	// DecodeBin reconstructs bin from a payload produced by EncodeBin. The
	// bin is freshly allocated by the receiving operator (state from
	// NewState, no pending records); DecodeBin replaces its contents.
	DecodeBin(bin Migratable, data []byte) error
}

// Migratable is the codec-facing, type-erased view of one bin
// (*BinState[R, S] implements it), which lets a codec live behind a plain
// interface value in Config.
type Migratable interface {
	// AppendPayload appends the bin's serialization — a one-byte format tag,
	// then state and pending records in that format — to buf.
	AppendPayload(buf []byte) ([]byte, error)
	// DecodePayload replaces the bin's contents from an AppendPayload
	// payload.
	DecodePayload(data []byte) error
}

// BinaryState is the contract a workload's per-bin state type implements
// (on its pointer receiver) to be shipped in the binary format instead of
// through the gob fallback. Implementations encode with the internal/binenc
// helpers; see keycount.HashState or nexmark's query states for worked
// examples.
type BinaryState interface {
	// AppendBinaryState appends the state's encoding to buf.
	AppendBinaryState(buf []byte) []byte
	// DecodeBinaryState replaces the receiver's contents from the front of
	// data and returns the unread remainder.
	DecodeBinaryState(data []byte) ([]byte, error)
}

// BinaryRec is the same contract for a workload's record type R, required
// only when bins can carry pending post-dated records at migration time
// (operators that use the Notificator). Implement it on the pointer
// receiver so DecodeBinaryRec can fill the record in place.
type BinaryRec interface {
	// AppendBinaryRec appends the record's encoding to buf.
	AppendBinaryRec(buf []byte) []byte
	// DecodeBinaryRec replaces the receiver's contents from the front of
	// data and returns the unread remainder.
	DecodeBinaryRec(data []byte) ([]byte, error)
}

// binaryCapable is an optional refinement of BinaryState/BinaryRec for
// generic types (MapState, Either) whose support depends on their type
// parameters: the interface methods exist at every instantiation, but only
// some instantiations can actually encode.
type binaryCapable interface{ BinaryCapable() bool }

// capable reports whether v (a BinaryState or BinaryRec value) can really
// encode, consulting BinaryCapable when present.
func capable(v any) bool {
	if c, ok := v.(binaryCapable); ok {
		return c.BinaryCapable()
	}
	return true
}

// recBinaryCapable reports whether *R satisfies BinaryRec and is capable.
func recBinaryCapable[R any]() bool {
	var r R
	br, ok := any(&r).(BinaryRec)
	return ok && capable(br)
}

// --- Migratable implementation on BinState ---

// Payload format tags: the first byte of every payload records which
// encoding produced the rest, so a bin whose types lack BinaryState support
// falls back to gob without ambiguity.
const (
	binFormatGob    = 0x00
	binFormatBinary = 0x01
)

// AppendPayload implements Migratable: the hand-rolled varint/fixed-width
// encoding defined by the BinaryState and BinaryRec contracts when the bin's
// types support it, encoding/gob otherwise. The choice is made per bin from
// the types (and from whether pending records exist), never by the caller.
func (b *BinState[R, S]) AppendPayload(buf []byte) ([]byte, error) {
	if out, ok := b.appendBinary(append(buf, binFormatBinary)); ok {
		return out, nil
	}
	return b.appendGob(append(buf, binFormatGob))
}

// DecodePayload implements Migratable.
func (b *BinState[R, S]) DecodePayload(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("megaphone: empty bin payload")
	}
	if b.State == nil {
		b.State = new(S)
	}
	switch data[0] {
	case binFormatBinary:
		return b.decodeBinary(data[1:])
	case binFormatGob:
		return b.decodeGob(data[1:])
	default:
		return fmt.Errorf("megaphone: unknown bin payload format tag %#x", data[0])
	}
}

// appendGob appends the gob serialization of the bin: state, then pending.
func (b *BinState[R, S]) appendGob(buf []byte) ([]byte, error) {
	w := bytes.NewBuffer(buf)
	enc := gob.NewEncoder(w)
	if err := enc.Encode(b.State); err != nil {
		return nil, fmt.Errorf("megaphone: encoding bin state: %w", err)
	}
	if err := enc.Encode(b.Pending); err != nil {
		return nil, fmt.Errorf("megaphone: encoding pending records: %w", err)
	}
	return w.Bytes(), nil
}

// decodeGob replaces the bin's contents from an appendGob payload.
func (b *BinState[R, S]) decodeGob(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(b.State); err != nil {
		return fmt.Errorf("megaphone: decoding bin state: %w", err)
	}
	b.Pending = nil
	if err := dec.Decode(&b.Pending); err != nil {
		return fmt.Errorf("megaphone: decoding pending records: %w", err)
	}
	return nil
}

// appendBinary appends the hand-rolled serialization of the bin: the
// state's BinaryState encoding, then the pending records (count, then
// time/record pairs in heap order). ok is false when S does not implement
// BinaryState, or when pending records exist and R does not implement
// BinaryRec.
func (b *BinState[R, S]) appendBinary(buf []byte) ([]byte, bool) {
	bs, ok := any(b.State).(BinaryState)
	if !ok || !capable(bs) {
		return buf, false
	}
	if len(b.Pending) > 0 && !recBinaryCapable[R]() {
		return buf, false
	}
	buf = bs.AppendBinaryState(buf)
	buf = binenc.AppendUvarint(buf, uint64(len(b.Pending)))
	for i := range b.Pending {
		buf = binenc.AppendUvarint(buf, uint64(b.Pending[i].Time))
		buf = any(&b.Pending[i].Rec).(BinaryRec).AppendBinaryRec(buf)
	}
	return buf, true
}

// decodeBinary replaces the bin's contents from an appendBinary payload,
// which must be consumed exactly. The pending records are appended in the
// order they were encoded, which is the sender's heap order — a valid heap
// layout, so heap operations resume without re-heapifying.
func (b *BinState[R, S]) decodeBinary(data []byte) error {
	bs, ok := any(b.State).(BinaryState)
	if !ok || !capable(bs) {
		return fmt.Errorf("megaphone: binary payload for a bin type without BinaryState support")
	}
	data, err := bs.DecodeBinaryState(data)
	if err != nil {
		return fmt.Errorf("megaphone: decoding bin state: %w", err)
	}
	n, data, err := binenc.Count(data, 2) // every pending record is >= 2 bytes
	if err != nil {
		return fmt.Errorf("megaphone: decoding pending count: %w", err)
	}
	if n > 0 && !recBinaryCapable[R]() {
		return fmt.Errorf("megaphone: binary payload with pending records for a record type without BinaryRec support")
	}
	b.Pending = nil
	if n > 0 {
		b.Pending = make([]TimedRec[R], n)
	}
	for i := range b.Pending {
		var t uint64
		t, data, err = binenc.Uvarint(data)
		if err != nil {
			return fmt.Errorf("megaphone: decoding pending time: %w", err)
		}
		b.Pending[i].Time = Time(t)
		data, err = any(&b.Pending[i].Rec).(BinaryRec).DecodeBinaryRec(data)
		if err != nil {
			return fmt.Errorf("megaphone: decoding pending record: %w", err)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("megaphone: %d trailing bytes after bin payload", len(data))
	}
	return nil
}

// --- The codec ---

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) EncodeBin(bin Migratable, buf []byte) ([]byte, error) {
	return bin.AppendPayload(buf)
}

func (binaryCodec) DecodeBin(bin Migratable, data []byte) error {
	return bin.DecodePayload(data)
}

// TransferBinary is the state codec: what a nil Config.Transfer means, and
// what a measuring decorator wraps.
var TransferBinary Codec = binaryCodec{}

// CodecByName resolves the codec a checkpoint manifest or a benchmark names.
func CodecByName(name string) (Codec, error) {
	if name != TransferBinary.Name() {
		return nil, fmt.Errorf("megaphone: unknown state codec %q (have %q)", name, TransferBinary.Name())
	}
	return TransferBinary, nil
}
