package dataflow

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"
)

// joinLocalMeshes builds an n-process cluster inside this test process:
// n meshes over loopback TCP with pre-bound listeners. Optional tweak
// functions adjust each spec before joining (striping, coalescing, ...).
func joinLocalMeshes(t *testing.T, n int, tweaks ...func(*ClusterSpec)) []*Mesh {
	t.Helper()
	lns := make([]net.Listener, n)
	hosts := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		hosts[i] = ln.Addr().String()
	}
	meshes := make([]*Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := ClusterSpec{
				Hosts:       hosts,
				Process:     i,
				Listener:    lns[i],
				DialTimeout: 10 * time.Second,
			}
			for _, tw := range tweaks {
				tw(&spec)
			}
			meshes[i], errs[i] = JoinMesh(spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	return meshes
}

// kcOut is a per-key running count, the output of the test dataflow. It has
// no BinaryRec implementation on purpose: it only travels Pipeline edges.
type kcOut struct{ K, C uint64 }

// buildKeyCount wires input -> exchange-by-key -> stateful count -> sink on
// one worker, returning the input handle. Outputs are reported through
// collect (called on the worker goroutine).
func buildKeyCount(w *Worker, collect func(kcOut)) *InputHandle[uint64] {
	in, s := NewInput[uint64](w, "in")
	b := w.NewOp("count", 1)
	Connect(b, s, Exchange[uint64]{Hash: func(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }})
	counts := map[uint64]uint64{}
	outs := b.Build(func(c *OpCtx) {
		ForEachBatch(c, 0, func(t Time, data []uint64) {
			out := NewBatch[kcOut](c, len(data))
			for _, k := range data {
				counts[k]++
				out.Recs = append(out.Recs, kcOut{K: k, C: counts[k]})
			}
			SendOwned(c, 0, t, out)
		})
	})
	res := Typed[kcOut](outs[0])
	sb := w.NewOp("sink", 0)
	Connect(sb, res, Pipeline[kcOut]{})
	sb.Build(func(c *OpCtx) {
		ForEachBatch(c, 0, func(t Time, data []kcOut) {
			for _, o := range data {
				collect(o)
			}
		})
	})
	return in
}

// genKeys is the deterministic per-(global worker, epoch) input, with heavy
// key collisions across workers so the exchange really mixes traffic.
func genKeys(worker int, epoch int) []uint64 {
	out := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		out = append(out, uint64((epoch*13+i*7+worker)%23))
	}
	return out
}

// runKeyCountProcess runs one process's share of the clustered key count:
// wpp workers, epochs of deterministic input, outputs appended to sink.
func runKeyCountProcess(mesh *Mesh, wpp, epochs int, sink *[]kcOut, mu *sync.Mutex) {
	exec := NewExecution(Config{Workers: wpp, Mesh: mesh})
	var handles []*InputHandle[uint64]
	exec.Build(func(w *Worker) {
		h := buildKeyCount(w, func(o kcOut) {
			mu.Lock()
			*sink = append(*sink, o)
			mu.Unlock()
		})
		handles = append(handles, h)
	})
	exec.Start()
	for e := 1; e <= epochs; e++ {
		for li, h := range handles {
			global := mesh.Process()*wpp + li
			h.SendBatchAt(Time(e), genKeys(global, e))
		}
		for _, h := range handles {
			h.AdvanceTo(Time(e + 1))
		}
	}
	for _, h := range handles {
		h.Close()
	}
	exec.Wait()
}

// TestMeshKeyCountEquivalence runs the same keyed computation as one
// process with 6 workers and as a 3-process x 2-worker cluster over
// loopback TCP, and requires identical output multisets — at the default
// coalescing threshold, and at a tiny one that splits every scheduling's
// record batches across many multi-record frames (per-peer FIFO must still
// keep each worker's progress ahead of its data).
func TestMeshKeyCountEquivalence(t *testing.T) {
	const procs, wpp, epochs = 3, 2, 40

	// Single-process reference.
	var refMu sync.Mutex
	var ref []kcOut
	exec := NewExecution(Config{Workers: procs * wpp})
	var handles []*InputHandle[uint64]
	exec.Build(func(w *Worker) {
		h := buildKeyCount(w, func(o kcOut) {
			refMu.Lock()
			ref = append(ref, o)
			refMu.Unlock()
		})
		handles = append(handles, h)
	})
	exec.Start()
	for e := 1; e <= epochs; e++ {
		for wi, h := range handles {
			h.SendBatchAt(Time(e), genKeys(wi, e))
		}
		for _, h := range handles {
			h.AdvanceTo(Time(e + 1))
		}
	}
	for _, h := range handles {
		h.Close()
	}
	exec.Wait()

	// Clustered runs.
	for _, coalesce := range []int{0, 64} {
		meshes := joinLocalMeshes(t, procs, func(s *ClusterSpec) { s.CoalesceBytes = coalesce })
		var cluMu sync.Mutex
		var clu []kcOut
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				runKeyCountProcess(meshes[p], wpp, epochs, &clu, &cluMu)
			}(p)
		}
		wg.Wait()

		if got, want := canonKC(clu), canonKC(ref); got != want {
			t.Fatalf("CoalesceBytes=%d: cluster output multiset differs from single-process run:\ncluster (%d recs):\n%.2000s\nsingle (%d recs):\n%.2000s",
				coalesce, len(clu), got, len(ref), want)
		}
	}
}

func canonKC(recs []kcOut) string {
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = fmt.Sprintf("%d:%d", r.K, r.C)
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestMeshControlChannel pins the control-plane channel the cluster
// AutoController rides on: BroadcastControl reaches every peer exactly once
// in per-sender FIFO order, frames sent before the receiving execution
// starts (or before a handler is registered) are buffered and replayed in
// arrival order rather than dropped, and handler invocations on one mesh
// never overlap.
func TestMeshControlChannel(t *testing.T) {
	const procs, perSender = 3, 4
	meshes := joinLocalMeshes(t, procs)

	// First half of the traffic goes out before any execution starts and
	// before any handler exists: the mesh must hold it.
	for p, m := range meshes {
		for i := 0; i < perSender/2; i++ {
			m.BroadcastControl([]byte{byte(p), byte(i)})
		}
	}

	// Trivial identical executions to open inbound dispatch.
	handles := make([]*InputHandle[uint64], procs)
	execs := make([]*Execution, procs)
	for p := range meshes {
		exec := NewExecution(Config{Workers: 1, Mesh: meshes[p]})
		exec.Build(func(w *Worker) {
			in, s := NewInput[uint64](w, "in")
			handles[p] = in
			b := w.NewOp("sink", 0)
			Connect(b, s, Pipeline[uint64]{})
			b.Build(func(c *OpCtx) { ForEachBatch(c, 0, func(Time, []uint64) {}) })
		})
		exec.Start()
		execs[p] = exec
	}

	type rec struct {
		from    int
		payload []byte
	}
	var mu sync.Mutex
	recv := make([][]rec, procs)
	overlaps := make([]int32, procs)
	var overlapped bool
	for p := range meshes {
		p := p
		meshes[p].SetControlHandler(func(from int, payload []byte) {
			mu.Lock()
			overlaps[p]++
			if overlaps[p] != 1 {
				overlapped = true
			}
			recv[p] = append(recv[p], rec{from, append([]byte(nil), payload...)})
			overlaps[p]--
			mu.Unlock()
		})
	}

	// Second half lands with handlers registered: direct dispatch.
	for p, m := range meshes {
		for i := perSender / 2; i < perSender; i++ {
			m.BroadcastControl([]byte{byte(p), byte(i)})
		}
	}

	want := (procs - 1) * perSender
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := true
		for p := range recv {
			if len(recv[p]) < want {
				done = false
			}
		}
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for p := range execs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			handles[p].Close()
			execs[p].Wait()
		}(p)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if overlapped {
		t.Error("control handler invocations overlapped on one mesh")
	}
	for p := range recv {
		if len(recv[p]) != want {
			t.Fatalf("process %d received %d control frames, want %d: %v", p, len(recv[p]), want, recv[p])
		}
		// Per-sender FIFO: each peer's frames arrive as seq 0,1,2,...
		next := make(map[int]byte)
		for _, r := range recv[p] {
			if len(r.payload) != 2 {
				t.Fatalf("process %d: malformed payload %v", p, r.payload)
			}
			sender := int(r.payload[0])
			if sender == p {
				t.Fatalf("process %d received its own broadcast", p)
			}
			if sender != r.from {
				t.Fatalf("process %d: frame from %d claims sender %d", p, r.from, sender)
			}
			if r.payload[1] != next[sender] {
				t.Fatalf("process %d: sender %d out of order: got seq %d, want %d", p, sender, r.payload[1], next[sender])
			}
			next[sender]++
		}
	}
}

// TestMeshBroadcastAndFrontier checks that broadcast edges reach every
// worker of every process exactly once per sender, and that cluster-wide
// completion (Wait) observes remote frontier movement.
func TestMeshBroadcastAndFrontier(t *testing.T) {
	const procs, wpp = 2, 2
	meshes := joinLocalMeshes(t, procs)
	var mu sync.Mutex
	got := map[[2]uint64]int{} // (sender worker, value) -> deliveries
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			exec := NewExecution(Config{Workers: wpp, Mesh: meshes[p]})
			var handles []*InputHandle[uint64]
			exec.Build(func(w *Worker) {
				in, s := NewInput[uint64](w, "in")
				handles = append(handles, in)
				b := w.NewOp("bcast-sink", 0)
				Connect(b, s, Broadcast[uint64]{})
				b.Build(func(c *OpCtx) {
					ForEachBatch(c, 0, func(tm Time, data []uint64) {
						mu.Lock()
						for _, v := range data {
							got[[2]uint64{v >> 32, v & 0xffffffff}]++
						}
						mu.Unlock()
					})
				})
			})
			exec.Start()
			for li, h := range handles {
				global := uint64(p*wpp + li)
				h.SendAt(1, global<<32|1, global<<32|2)
				h.Close()
			}
			exec.Wait()
		}(p)
	}
	wg.Wait()

	total := procs * wpp
	if len(got) != total*2 {
		t.Fatalf("got %d distinct (sender, value) pairs, want %d", len(got), total*2)
	}
	for k, n := range got {
		if n != total {
			t.Fatalf("value %v delivered %d times, want %d (once per worker)", k, n, total)
		}
	}
}

// TestMeshScratchGivesBackALargeFrame: one exchanged batch of megabytes (an
// all-at-once migration's state, a catch-up backlog) grows the sending
// worker's encode and coalescing scratch, the session's frame-payload pool and
// the receiving connection's read buffer to its size. Once traffic is back
// to small batches, none of them may keep it.
func TestMeshScratchGivesBackALargeFrame(t *testing.T) {
	const large, small, epochs = 1 << 19, 8, 2000
	meshes := joinLocalMeshes(t, 2)
	peak := make([]Retained, len(meshes))
	end := make([]Retained, len(meshes))
	var wg sync.WaitGroup
	for p, mesh := range meshes {
		peak[p].Scratch = make([]int64, 1)
		wg.Add(1)
		go func(p int, mesh *Mesh) {
			defer wg.Done()
			exec := NewExecution(Config{Workers: 1, Mesh: mesh})
			var in *InputHandle[uint64]
			var probe *Probe
			exec.Build(func(w *Worker) {
				h, s := NewInput[uint64](w, "in")
				in = h
				b := w.NewOp("exchange", 1)
				Connect(b, s, Exchange[uint64]{Hash: func(k uint64) uint64 { return k }})
				outs := b.Build(func(c *OpCtx) {
					TakeEachBatch(c, 0, func(t Time, b Batch[uint64]) { SendOwned(c, 0, t, b) })
				})
				probe = NewProbe(w, Typed[uint64](outs[0]))
			})
			exec.Start()
			for e := 1; e <= epochs; e++ {
				n := small
				if e == 1 {
					n = large
				}
				batch := make([]uint64, n)
				for i := range batch {
					batch[i] = uint64(i)
				}
				in.SendBatchAt(Time(e), batch)
				in.AdvanceTo(Time(e + 1))
				for probe.Frontier() < Time(e+1) {
					time.Sleep(10 * time.Microsecond)
				}
				r := exec.Retained()
				peak[p].Scratch[0] = max(peak[p].Scratch[0], r.Scratch[0])
				peak[p].Transport = max(peak[p].Transport, r.Transport)
			}
			end[p] = exec.Retained()
			in.Close()
			exec.Wait()
		}(p, mesh)
	}
	wg.Wait()
	for p := range meshes {
		t.Logf("process %d: scratch %d -> %d bytes, transport pools %d -> %d bytes",
			p, peak[p].Scratch[0], end[p].Scratch[0], peak[p].Transport, end[p].Transport)
		if peak[p].Scratch[0] < large*8/4 || peak[p].Transport < large*8/4 {
			t.Errorf("process %d: the large batch only grew the scratch to %d bytes and the pools to %d: the test no longer exercises them",
				p, peak[p].Scratch[0], peak[p].Transport)
		}
		if end[p].Scratch[0] > 64<<10 {
			t.Errorf("process %d: encode scratch still holds %d bytes after %d small epochs", p, end[p].Scratch[0], epochs)
		}
		if end[p].Transport > 256<<10 {
			t.Errorf("process %d: frame-payload pools still hold %d bytes after %d small epochs", p, end[p].Transport, epochs)
		}
	}
}
