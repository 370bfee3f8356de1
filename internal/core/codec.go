package core

import (
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
// (on its pointer receiver) so its bins can leave their process: migrate to
// a worker of another process, or land in a checkpoint. It is the only
// serialization of bin state; Operator refuses, at build, a state type
// without it in a mesh or with checkpointing configured. Implementations
// encode with the internal/binenc helpers; see keycount.HashState or
// nexmark's query states for worked examples.
type BinaryState interface {
	// AppendBinaryState appends the state's encoding to buf.
	AppendBinaryState(buf []byte) []byte
	// DecodeBinaryState replaces the receiver's contents from the front of
	// data and returns the unread remainder.
	DecodeBinaryState(data []byte) ([]byte, error)
}

// BinaryRec is the same contract for a record type: what lets records cross
// a process boundary on an exchange edge, and lets a bin that leaves its
// process carry pending post-dated records (operators that use the
// Notificator). Implement it on the pointer receiver so DecodeBinaryRec can
// fill the record in place. The scalars wireRecCapable lists need no
// implementation.
type BinaryRec interface {
	// AppendBinaryRec appends the record's encoding to buf.
	AppendBinaryRec(buf []byte) []byte
	// DecodeBinaryRec replaces the receiver's contents from the front of
	// data and returns the unread remainder.
	DecodeBinaryRec(data []byte) ([]byte, error)
}

// binaryCapable is an optional refinement of BinaryState/BinaryRec for
// generic types (MapState, Either, KV) whose support depends on their type
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

// stateCapable reports whether *S implements a capable BinaryState.
func stateCapable[S any]() bool {
	bs, ok := any(new(S)).(BinaryState)
	return ok && capable(bs)
}

// --- Migratable implementation on BinState ---

// binFormatBinary is the first byte of every bin payload. It is the only
// format: 0x00 tagged the gob encoding of earlier builds, which no longer
// decodes (see loadBins).
const binFormatBinary = 0x01

// AppendPayload implements Migratable: the format tag, the state's
// BinaryState encoding, then the pending records (count, then time/record
// pairs in heap order). A state type without a capable BinaryState, or
// pending records of a type that cannot cross a process (see
// wireRecCapable), is an error.
func (b *BinState[R, S]) AppendPayload(buf []byte) ([]byte, error) {
	bs, ok := any(b.State).(BinaryState)
	if !ok || !capable(bs) {
		return nil, fmt.Errorf("megaphone: bin state %T has no binary encoding", b.State)
	}
	if len(b.Pending) > 0 && !wireRecCapable[R]() {
		return nil, fmt.Errorf("megaphone: pending record type %T has no binary encoding", b.Pending[0].Rec)
	}
	buf = bs.AppendBinaryState(append(buf, binFormatBinary))
	buf = binenc.AppendUvarint(buf, uint64(len(b.Pending)))
	for i := range b.Pending {
		buf = binenc.AppendUvarint(buf, uint64(b.Pending[i].Time))
		buf = appendWireRec(&b.Pending[i].Rec, buf)
	}
	return buf, nil
}

// DecodePayload implements Migratable: it replaces the bin's contents from
// an AppendPayload payload, which must be consumed exactly. The pending
// records are appended in the order they were encoded, which is the
// sender's heap order — a valid heap layout, so heap operations resume
// without re-heapifying.
func (b *BinState[R, S]) DecodePayload(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("megaphone: empty bin payload")
	}
	if data[0] != binFormatBinary {
		return fmt.Errorf("megaphone: bin payload format tag %#x, want %#x", data[0], binFormatBinary)
	}
	if b.State == nil {
		b.State = new(S)
	}
	bs, ok := any(b.State).(BinaryState)
	if !ok || !capable(bs) {
		return fmt.Errorf("megaphone: bin state %T has no binary encoding", b.State)
	}
	data, err := bs.DecodeBinaryState(data[1:])
	if err != nil {
		return fmt.Errorf("megaphone: decoding bin state: %w", err)
	}
	n, data, err := binenc.Count(data, 2) // every pending record is >= 2 bytes
	if err != nil {
		return fmt.Errorf("megaphone: decoding pending count: %w", err)
	}
	if n > 0 && !wireRecCapable[R]() {
		return fmt.Errorf("megaphone: pending records of type %T, which has no binary encoding", *new(R))
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
		data, err = decodeWireRec(&b.Pending[i].Rec, data)
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
