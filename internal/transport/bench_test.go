package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkFrameAppend pins the pure framing cost (zero allocations; see
// TestAppendFrameZeroAlloc for the hard pin).
func BenchmarkFrameAppend(b *testing.B) {
	payload := make([]byte, 256)
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], KindUser, uint64(i), payload)
	}
}

// BenchmarkTransportSendRecv measures end-to-end frame throughput between
// two transports over loopback TCP: enqueue, frame, write, read, dispatch.
func BenchmarkTransportSendRecv(b *testing.B) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var received atomic.Int64
	var ts [2]*Transport
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var h Handler
			if i == 0 {
				h = func(from int, kind byte, payload []byte) { received.Add(1) }
			}
			tr, err := Dial(Config{Addrs: addrs, Index: i, Listener: lns[i], DialTimeout: 10 * time.Second}, h)
			if err != nil {
				b.Error(err)
				return
			}
			ts[i] = tr
		}(i)
	}
	wg.Wait()
	if ts[0] == nil || ts[1] == nil {
		b.Fatal("cluster did not come up")
	}
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	// The producer paces itself with a bounded in-flight window, the way the
	// dataflow above does (it flushes per scheduling round and its peers ack
	// continuously): an unwindowed loop would measure the allocator growing
	// multi-million-entry queue arrays, not the wire. The window is large
	// enough to keep the send loop's coalescing saturated.
	const window = 4096
	payload := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(payload, uint64(i))
		ts[1].Send(0, KindUser, payload)
		if i%256 == 255 {
			for int64(i+1)-received.Load() > window {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	for received.Load() < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	var fw sync.WaitGroup
	for _, tr := range ts {
		fw.Add(1)
		go func(tr *Transport) { defer fw.Done(); tr.Finish(20 * time.Second) }(tr)
	}
	fw.Wait()
}
