package binenc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestRoundTrips: every append/decode pair reconstructs its input and
// consumes exactly the bytes it wrote.
func TestRoundTrips(t *testing.T) {
	if err := quick.Check(func(x uint64, pre []byte) bool {
		buf := AppendUvarint(append([]byte(nil), pre...), x)
		got, rest, err := Uvarint(buf[len(pre):])
		return err == nil && got == x && len(rest) == 0
	}, nil); err != nil {
		t.Error("uvarint:", err)
	}
	if err := quick.Check(func(x int64) bool {
		got, rest, err := Varint(AppendVarint(nil, x))
		return err == nil && got == x && len(rest) == 0
	}, nil); err != nil {
		t.Error("varint:", err)
	}
	if err := quick.Check(func(x uint64) bool {
		got, rest, err := U64(AppendU64(nil, x))
		return err == nil && got == x && len(rest) == 0
	}, nil); err != nil {
		t.Error("u64:", err)
	}
	if err := quick.Check(func(x uint32) bool {
		got, rest, err := U32(AppendU32(nil, x))
		return err == nil && got == x && len(rest) == 0
	}, nil); err != nil {
		t.Error("u32:", err)
	}
	if err := quick.Check(func(s string) bool {
		got, rest, err := String(AppendString(nil, s))
		return err == nil && got == s && len(rest) == 0
	}, nil); err != nil {
		t.Error("string:", err)
	}
	if err := quick.Check(func(xs []uint64) bool {
		got, rest, err := U64s(AppendU64s(nil, xs))
		if err != nil || len(rest) != 0 || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error("u64s:", err)
	}
}

// TestComposition: heterogeneous fields thread through one buffer.
func TestComposition(t *testing.T) {
	buf := AppendUvarint(nil, 300)
	buf = AppendString(buf, "item")
	buf = AppendBool(buf, true)
	buf = AppendU64(buf, math.MaxUint64)
	buf = AppendVarint(buf, -77)

	x, rest, err := Uvarint(buf)
	if err != nil || x != 300 {
		t.Fatalf("uvarint: %v %v", x, err)
	}
	s, rest, err := String(rest)
	if err != nil || s != "item" {
		t.Fatalf("string: %q %v", s, err)
	}
	b, rest, err := Bool(rest)
	if err != nil || !b {
		t.Fatalf("bool: %v %v", b, err)
	}
	u, rest, err := U64(rest)
	if err != nil || u != math.MaxUint64 {
		t.Fatalf("u64: %v %v", u, err)
	}
	v, rest, err := Varint(rest)
	if err != nil || v != -77 {
		t.Fatalf("varint: %v %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

// TestShortInputs: truncated encodings error rather than panic, at every
// truncation point.
func TestShortInputs(t *testing.T) {
	full := AppendString(AppendU64(AppendUvarint(nil, 1<<40), 42), "hello")
	decodeAll := func(data []byte) error {
		_, data, err := Uvarint(data)
		if err != nil {
			return err
		}
		if _, data, err = U64(data); err != nil {
			return err
		}
		_, _, err = String(data)
		return err
	}
	if err := decodeAll(full); err != nil {
		t.Fatalf("full payload failed: %v", err)
	}
	for i := 0; i < len(full); i++ {
		if decodeAll(full[:i]) == nil {
			t.Fatalf("truncation at %d decoded fully", i)
		}
	}
	if _, _, err := Bool(nil); err == nil {
		t.Error("Bool(nil) succeeded")
	}
	if _, _, err := U32([]byte{1, 2, 3}); err == nil {
		t.Error("U32 on three bytes succeeded")
	}
	if _, _, err := String([]byte{200}); err == nil {
		t.Error("String on bare continuation byte succeeded")
	}
	// A declared length far beyond the buffer must not allocate or read out
	// of range.
	huge := AppendUvarint(nil, math.MaxUint64)
	if _, _, err := String(huge); err == nil {
		t.Error("String with absurd length succeeded")
	}
	if _, _, err := U64s(huge); err == nil {
		t.Error("U64s with absurd length succeeded")
	}
}

// TestAppendExtends: appending to a buffer with existing content preserves
// the prefix.
func TestAppendExtends(t *testing.T) {
	pre := []byte("prefix")
	buf := AppendString(append([]byte(nil), pre...), "tail")
	if !bytes.HasPrefix(buf, pre) {
		t.Fatalf("prefix clobbered: %q", buf)
	}
}
