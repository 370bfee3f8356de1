// Package transport is the process-to-process wire of the distributed
// runtime: a length-prefixed framed protocol over TCP with per-peer send and
// receive goroutines, a connection handshake (magic, protocol version,
// cluster identity, process index, peer count), sequence-numbered frames
// with ack-based retention, and reconnect-with-backoff that replays unacked
// frames so a dropped connection loses nothing and delivers nothing twice.
//
// The package knows nothing about dataflow: frames carry an opaque kind byte
// (kinds >= KindUser belong to the layer above; see dataflow.Mesh) and a
// payload. What it guarantees is exactly what the progress protocol needs:
// per-peer FIFO delivery of every frame exactly once, across reconnects.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"megaphone/internal/freelist"
)

// Frame kinds. Kinds below KindUser are internal to the transport.
const (
	kindHello    byte = 0 // handshake, dialer -> acceptor
	kindHelloAck byte = 1 // handshake reply, acceptor -> dialer
	kindAck      byte = 2 // cumulative receive acknowledgement
	kindFin      byte = 3 // sender has no further frames (shutdown barrier)
	kindReject   byte = 4 // handshake rejection with a reason, acceptor -> dialer
	kindBatch    byte = 5 // coalesced run of numbered frames (see sub-frame format)

	// KindUser is the first frame kind available to the layer above.
	KindUser byte = 16
)

// Protocol constants.
const (
	// Magic opens every handshake payload.
	Magic uint32 = 0x4d475048 // "MGPH"
	// Version is the wire protocol version; a handshake with any other
	// version is rejected rather than defaulted, so a stale binary cannot
	// silently join with a framing the rest of the cluster does not speak.
	// Version 5 drops version 4's unread membership epoch from the hello;
	// version 4 introduced batched framing over one connection per peer
	// pair (version 3 striped a pair over several).
	Version uint16 = 5
	// DefaultMaxFrame bounds the total encoded size of one frame unless
	// Config.MaxFrame overrides it. Oversized frames are rejected on both
	// sides: Send reports it through the transport's fatal error path (the
	// layer above bounds its batches, so it is a configuration error, but a
	// data-dependent one — see Transport.Send) and the reader kills the
	// connection.
	DefaultMaxFrame = 64 << 20

	// frameOverhead is the fixed per-frame framing cost: a u32 length
	// (covering kind+seq+payload), a kind byte, and a u64 sequence number.
	frameOverhead = 4 + 1 + 8

	// subOverhead is the per-sub-frame cost inside a kindBatch frame: a u32
	// length (covering kind+payload) and a kind byte. The sequence number is
	// implicit — sub-frame i of a batch with first sequence s carries s+i —
	// which is what makes coalescing pay: 5 bytes instead of 13 per frame,
	// and one length-prefixed read instead of many.
	subOverhead = 4 + 1

	// defaultCoalesce caps how many payload bytes the send loop coalesces
	// into one kindBatch frame (never more than Config.MaxFrame; a larger
	// frame travels alone). Large enough to amortize framing and the
	// writev syscall, small enough to keep per-frame latency and the
	// receiver's contiguous read buffer modest.
	defaultCoalesce = 256 << 10

	// ackEvery is the number of received frames between acknowledgements;
	// it bounds how much a sender retains for replay.
	ackEvery = 64
)

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// configured maximum; the connection carrying it is unusable (the stream
// cannot be resynchronized) and is closed.
type ErrFrameTooLarge struct {
	Declared, Max int
}

func (e ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes exceeds max %d", e.Declared, e.Max)
}

// AppendFrame appends the encoding of one frame to buf and returns the
// extended slice. Sequence number 0 marks an unnumbered frame (handshake,
// ack); numbered frames start at 1.
func AppendFrame(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	return append(appendHeader(buf, kind, seq, len(payload)), payload...)
}

// appendHeader appends the header of a frame whose payload is n bytes long.
func appendHeader(buf []byte, kind byte, seq uint64, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+8+n))
	buf = append(buf, kind)
	return binary.BigEndian.AppendUint64(buf, seq)
}

// FrameReader decodes frames from a byte stream, reusing one internal
// buffer. The payload returned by Next is valid only until the following
// call.
type FrameReader struct {
	r   io.Reader
	max int
	buf freelist.Buf
	hdr [4]byte
}

// NewFrameReader returns a reader enforcing the given maximum frame size
// (DefaultMaxFrame when max <= 0).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	return &FrameReader{r: r, max: max}
}

// Next reads one frame. A short read anywhere inside a frame (a torn frame)
// surfaces as io.ErrUnexpectedEOF; a clean EOF between frames as io.EOF.
func (fr *FrameReader) Next() (kind byte, seq uint64, payload []byte, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n < 1+8 {
		return 0, 0, nil, fmt.Errorf("transport: frame length %d below header size", n)
	}
	if n+4 > fr.max {
		return 0, 0, nil, ErrFrameTooLarge{Declared: n + 4, Max: fr.max}
	}
	if cap(fr.buf.B) < n {
		fr.buf.B = make([]byte, n)
	}
	fr.buf.Note(n)
	body := fr.buf.B[:n]
	if _, err = io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// Trim ends an ageing interval for the reader's buffer (freelist's rule): a
// buffer grown for one large frame — a migration's state — is dropped once
// two intervals of frames would have fit in half of it. The payload last
// returned by Next is invalid afterwards, as it is after the next Next.
func (fr *FrameReader) Trim() { fr.buf.Trim() }

// forEachSub walks the payload of a kindBatch frame, invoking f for each
// sub-frame with its implicit sequence number (firstSeq + position). f
// returns false to stop the walk early (the caller is tearing the
// connection down); forEachSub then returns nil — the walk's abort is the
// caller's doing, not a format error.
func forEachSub(firstSeq uint64, payload []byte, f func(seq uint64, kind byte, body []byte) bool) error {
	seq := firstSeq
	for len(payload) > 0 {
		if len(payload) < subOverhead {
			return fmt.Errorf("transport: %d trailing bytes inside a batch frame", len(payload))
		}
		n := int(binary.BigEndian.Uint32(payload))
		if n < 1 || subOverhead-1+n > len(payload) {
			return fmt.Errorf("transport: sub-frame length %d exceeds batch remainder %d", n, len(payload)-subOverhead+1)
		}
		if !f(seq, payload[4], payload[5:4+n]) {
			return nil
		}
		payload = payload[4+n:]
		seq++
	}
	return nil
}

// hello is the handshake payload exchanged on every new connection. RecvSeq
// resumes a broken session: it is the highest contiguous frame sequence the
// sender of the hello has received from its peer, so the peer replays
// everything after it.
type hello struct {
	ClusterID uint64
	From      int // process index of the hello's sender
	Procs     int // total roster size, verified to match
	RecvSeq   uint64
}

// appendHello encodes h.
func appendHello(buf []byte, h hello) []byte {
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, h.ClusterID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.From))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Procs))
	return binary.BigEndian.AppendUint64(buf, h.RecvSeq)
}

// parseHello decodes and validates a handshake payload.
func parseHello(p []byte) (hello, error) {
	if len(p) < 4+2 {
		return hello{}, fmt.Errorf("transport: handshake payload of %d bytes", len(p))
	}
	if m := binary.BigEndian.Uint32(p[0:4]); m != Magic {
		return hello{}, fmt.Errorf("transport: bad handshake magic %#x", m)
	}
	// Version is checked before length so a hello of another version
	// (whose payload may be shorter or longer) is reported as the version
	// skew it is, not as a malformed payload.
	if v := binary.BigEndian.Uint16(p[4:6]); v != Version {
		return hello{}, fmt.Errorf("transport: protocol version mismatch: peer speaks %d, this build speaks %d", v, Version)
	}
	if len(p) != 4+2+8+2+2+8 {
		return hello{}, fmt.Errorf("transport: handshake payload of %d bytes", len(p))
	}
	return hello{
		ClusterID: binary.BigEndian.Uint64(p[6:14]),
		From:      int(binary.BigEndian.Uint16(p[14:16])),
		Procs:     int(binary.BigEndian.Uint16(p[16:18])),
		RecvSeq:   binary.BigEndian.Uint64(p[18:26]),
	}, nil
}
