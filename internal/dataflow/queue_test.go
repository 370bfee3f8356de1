package dataflow_test

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"megaphone/internal/dataflow"
)

// keyed is a heap element ordered by key alone; id tells equal keys apart.
type keyed struct{ key, id int }

func keyBefore(a, b *keyed) bool { return a.key < b.key }

// stdHeap is the same order as a container/heap.Interface.
type stdHeap []keyed

func (h stdHeap) Len() int           { return len(h) }
func (h stdHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h stdHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stdHeap) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *stdHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapMatchesContainerHeap: HeapPush, HeapPop and HeapInit leave every
// element where container/heap's Push, Pop and Init would, equal keys
// included. A bin's pending records are encoded in heap order and replayed
// in pop order, so a migrated or checkpointed bin written by a build that
// used container/heap replays the same way.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got []keyed
	var want stdHeap
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(got) == 0:
			e := keyed{key: rng.Intn(8), id: op}
			dataflow.HeapPush(&got, e, keyBefore)
			heap.Push(&want, e)
		case r < 9:
			g, w := dataflow.HeapPop(&got, keyBefore), heap.Pop(&want).(keyed)
			if g != w {
				t.Fatalf("op %d: popped %+v, container/heap pops %+v", op, g, w)
			}
		default:
			for i := range got {
				if rng.Intn(2) == 0 {
					got[i].key = rng.Intn(8)
					want[i].key = got[i].key
				}
			}
			dataflow.HeapInit(got, keyBefore)
			heap.Init(&want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: heap %v, container/heap %v", op, got, want)
		}
	}
}

// TestTimeQueueOrder: a TimeQueue pops by time and, within a time, in the
// order the items arrived.
func TestTimeQueueOrder(t *testing.T) {
	var q dataflow.TimeQueue[int]
	if q.Head() != dataflow.None {
		t.Fatalf("empty queue's head is %v, want None", q.Head())
	}
	times := []dataflow.Time{5, 3, 5, 1, 3, 5, 1}
	for i, at := range times {
		q.Push(at, i)
	}
	var got []int
	for q.Head() != dataflow.None {
		next := q.Peek()
		if v := q.Pop(); v != next {
			t.Fatalf("Peek returned %d, Pop %d", next, v)
		}
		got = append(got, next)
	}
	if want := []int{3, 6, 1, 4, 0, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
}
