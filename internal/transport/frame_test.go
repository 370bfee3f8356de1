package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for i, p := range payloads {
		buf = AppendFrame(buf, KindUser+byte(i), uint64(i+1), p)
	}
	fr := NewFrameReader(bytes.NewReader(buf), 0)
	for i, p := range payloads {
		kind, seq, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != KindUser+byte(i) || seq != uint64(i+1) {
			t.Fatalf("frame %d: got kind=%d seq=%d", i, kind, seq)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(p))
		}
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("expected EOF at end, got %v", err)
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	buf := AppendFrame(nil, KindUser, 1, bytes.Repeat([]byte("z"), 4096))
	fr := NewFrameReader(bytes.NewReader(buf), 256)
	_, _, _, err := fr.Next()
	var tooBig ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	if tooBig.Max != 256 {
		t.Fatalf("error carries max %d, want 256", tooBig.Max)
	}
}

func TestFrameTornReads(t *testing.T) {
	full := AppendFrame(nil, KindUser, 7, []byte("hello, torn world"))
	// A clean cut at the frame boundary is EOF; any cut inside the frame is
	// an unexpected EOF.
	for cut := 1; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]), 0)
		_, _, _, err := fr.Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(full), 0)
	if _, _, _, err := fr.Next(); err != nil {
		t.Fatalf("full frame: %v", err)
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after full frame: got %v, want io.EOF", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := hello{ClusterID: 0xfeedface, From: 3, Procs: 5, RecvSeq: 42}
	got, err := parseHello(appendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

// TestBatchSubFrameRoundTrip pins the coalesced sub-frame format: a batch
// payload built from appendSubFrame walks back out of forEachSub with
// consecutive implicit sequence numbers and byte-identical bodies.
func TestBatchSubFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	var buf []byte
	for i, p := range payloads {
		buf = appendSubFrame(buf, KindUser+byte(i), p)
	}
	i := 0
	err := forEachSub(10, buf, func(seq uint64, kind byte, body []byte) bool {
		if seq != uint64(10+i) || kind != KindUser+byte(i) {
			t.Fatalf("sub %d: got seq=%d kind=%d", i, seq, kind)
		}
		if !bytes.Equal(body, payloads[i]) {
			t.Fatalf("sub %d: body mismatch (%d vs %d bytes)", i, len(body), len(payloads[i]))
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(payloads) {
		t.Fatalf("walked %d subs, want %d", i, len(payloads))
	}
}

// appendSubFrame appends the encoding of one coalesced sub-frame to buf: a
// u32 length covering kind+payload, the kind byte, and the payload. The
// sub-frame's sequence number is implicit in its position within the
// enclosing kindBatch frame. The send loop builds sub-frames with vectored
// writes; the tests build them with this.
func appendSubFrame(buf []byte, kind byte, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(buf, kind)
	return append(buf, payload...)
}

// TestBatchTornAndMalformed: any truncation of a batch payload inside a
// sub-frame is a format error, and an early false from the callback stops the
// walk without an error (the caller aborted, the format is fine).
func TestBatchTornAndMalformed(t *testing.T) {
	full := appendSubFrame(appendSubFrame(nil, KindUser, []byte("first")), KindUser+1, []byte("second"))
	for cut := 1; cut < len(full); cut++ {
		// Cuts at sub-frame boundaries are valid shorter batches; all others
		// must error.
		if cut == subOverhead+len("first") {
			continue
		}
		n := 0
		if err := forEachSub(1, full[:cut], func(uint64, byte, []byte) bool { n++; return true }); err == nil {
			t.Fatalf("cut at %d accepted after %d subs", cut, n)
		}
	}
	// Zero-length sub frame (n < 1) is malformed, not an infinite loop.
	if err := forEachSub(1, []byte{0, 0, 0, 0, 16}, func(uint64, byte, []byte) bool { return true }); err == nil {
		t.Fatal("zero-length sub-frame accepted")
	}
	calls := 0
	if err := forEachSub(1, full, func(uint64, byte, []byte) bool { calls++; return false }); err != nil {
		t.Fatalf("early stop reported error: %v", err)
	}
	if calls != 1 {
		t.Fatalf("early stop walked %d subs, want 1", calls)
	}
}

// helloAtVersion renders h with another protocol version stamped on it, as
// a build speaking that version would open its hello.
func helloAtVersion(h hello, version uint16) []byte {
	p := appendHello(nil, h)
	binary.BigEndian.PutUint16(p[4:6], version)
	return p
}

// TestHandshakeOtherVersionsRejected pins the one version check: a hello
// carrying any other protocol version — older, newer, version 4, whose
// payload carried an 8-byte membership epoch, or the striping build's 3,
// longer still — is rejected as the version skew it is, whatever its length,
// never misreported as a malformed payload.
func TestHandshakeOtherVersionsRejected(t *testing.T) {
	h := hello{ClusterID: 1, From: 1, Procs: 2, RecvSeq: 3}
	for v := uint16(0); v <= Version+1; v++ {
		if v == Version {
			continue
		}
		p := helloAtVersion(h, v)
		for _, payload := range [][]byte{p, p[:18], append(p[:len(p):len(p)], 0, 0, 0, 0, 0, 0, 0, 4)} {
			_, err := parseHello(payload)
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version mismatch")) {
				t.Fatalf("version %d hello of %d bytes: got %v, want a version mismatch", v, len(payload), err)
			}
		}
	}
}

// TestHandshakeCurrentVersionTruncated: a current-version hello with its
// tail cut off is a length error, not a crash.
func TestHandshakeCurrentVersionTruncated(t *testing.T) {
	p := appendHello(nil, hello{ClusterID: 1, From: 1, Procs: 2, RecvSeq: 9})
	for cut := 6; cut < len(p); cut++ {
		if _, err := parseHello(p[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestHandshakeBadMagic(t *testing.T) {
	p := appendHello(nil, hello{ClusterID: 1, From: 1, Procs: 2})
	p[0] ^= 0xff
	if _, err := parseHello(p); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestAppendFrameZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 512)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendFrame(buf[:0], KindUser, 9, payload)
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame allocates %.1f times per frame, want 0", allocs)
	}
}

func FuzzFrameReader(f *testing.F) {
	f.Add(AppendFrame(nil, KindUser, 1, []byte("seed")))
	f.Add([]byte{0, 0, 0, 9, 16, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		for {
			_, _, _, err := fr.Next()
			if err != nil {
				return // any error is fine; panics and hangs are not
			}
		}
	})
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(16), uint64(1), []byte("payload"))
	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, payload []byte) {
		buf := AppendFrame(nil, kind, seq, payload)
		fr := NewFrameReader(bytes.NewReader(buf), len(buf)+16)
		k, s, p, err := fr.Next()
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if k != kind || s != seq || !bytes.Equal(p, payload) {
			t.Fatalf("round trip mismatch: kind %d/%d seq %d/%d", k, kind, s, seq)
		}
	})
}

func FuzzParseHello(f *testing.F) {
	f.Add(appendHello(nil, hello{ClusterID: 1, From: 1, Procs: 2, RecvSeq: 3}))
	// A version-4 hello, which carried an 8-byte membership epoch.
	f.Add(append(helloAtVersion(hello{ClusterID: 1, From: 1, Procs: 2, RecvSeq: 3}, 4), 0, 0, 0, 0, 0, 0, 0, 12))
	f.Add(helloAtVersion(hello{ClusterID: 9, From: 0, Procs: 4, RecvSeq: 8}, 3)[:26])
	f.Fuzz(func(t *testing.T, data []byte) {
		parseHello(data) // must not panic
	})
}

// FuzzHelloRoundTrip: every hello survives encode/decode field-for-field
// and stamped with the previous version it is
// always rejected.
func FuzzHelloRoundTrip(f *testing.F) {
	f.Add(uint64(1), 1, 2, uint64(3))
	f.Add(uint64(0xfeedface), 3, 5, uint64(42))
	f.Fuzz(func(t *testing.T, cluster uint64, from, procs int, recvSeq uint64) {
		h := hello{ClusterID: cluster, From: from & 0xffff, Procs: procs & 0xffff, RecvSeq: recvSeq}
		got, err := parseHello(appendHello(nil, h))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got != h {
			t.Fatalf("round trip mismatch: got %+v, want %+v", got, h)
		}
		if _, err := parseHello(helloAtVersion(h, Version-1)); err == nil {
			t.Fatal("previous-version rendering accepted")
		}
	})
}
