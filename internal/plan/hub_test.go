package plan

import (
	"sync"
	"sync/atomic"
)

// FakeHub wires N FakeBus endpoints into an in-memory cluster control
// channel with the same contract as dataflow.Mesh: per-receiver serialized
// handlers, frames buffered until the handler registers, broadcast never
// loops back to the sender. Delivery runs synchronously on the sender's
// goroutine, which both preserves per-sender FIFO (the seq-dedup in the
// control plane assumes it) and maximizes cross-goroutine shared-state
// traffic for the race detector. It lives in the internal test package so
// the white-box tests and the plan_test fixtures share one hub.
type FakeHub struct {
	Buses []*FakeBus
}

type FakeBus struct {
	hub  *FakeHub
	proc int

	mu      sync.Mutex
	handler func(from int, payload []byte)
	pending []fakeFrame
	// Dead simulates a crashed process: its outbound frames vanish.
	Dead atomic.Bool
	// sent counts the frames this endpoint broadcast, by kind byte.
	sent [256]atomic.Int64
}

type fakeFrame struct {
	from    int
	payload []byte
}

func NewFakeHub(procs int) *FakeHub {
	h := &FakeHub{}
	for p := 0; p < procs; p++ {
		h.Buses = append(h.Buses, &FakeBus{hub: h, proc: p})
	}
	return h
}

func (b *FakeBus) BroadcastControl(payload []byte) {
	if b.Dead.Load() {
		return
	}
	b.sent[payload[0]].Add(1)
	cp := append([]byte(nil), payload...)
	for _, peer := range b.hub.Buses {
		if peer.proc != b.proc {
			peer.deliver(b.proc, cp)
		}
	}
}

func (b *FakeBus) deliver(from int, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.handler == nil {
		b.pending = append(b.pending, fakeFrame{from: from, payload: payload})
		return
	}
	b.handler(from, payload)
}

func (b *FakeBus) SetControlHandler(h func(from int, payload []byte)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handler = h
	for _, f := range b.pending {
		h(f.from, f.payload)
	}
	b.pending = nil
}

// sentOf returns how many frames of the given kind this endpoint broadcast.
func (b *FakeBus) sentOf(kind byte) int { return int(b.sent[kind].Load()) }
