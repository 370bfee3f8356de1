package benchkit

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
	"megaphone/internal/progress"
	"megaphone/internal/transport"
)

// A rung times calls into one layer's public functions for about the given
// budget and reports its metrics. ../README.md says which end-to-end metric
// each rung should move.
type rung func(budget time.Duration, mt map[string]float64)

// RunLadder runs every rung, sharing total evenly.
func RunLadder(total time.Duration) PhaseResult {
	rungs := []rung{
		func(b time.Duration, mt map[string]float64) { mt["core.apply_ns_rec"] = applyRung(b, 8) },
		func(b time.Duration, mt map[string]float64) { mt["core.apply_ns_rec.bins16"] = applyRung(b, 16) },
		codecRung,
		binencRung,
		planRung,
		progressRung,
		exchangeRung,
		func(b time.Duration, mt map[string]float64) { mt["dataflow.epoch_rtt_us"] = rttRung(b, 1, 2) },
		func(b time.Duration, mt map[string]float64) { mt["dataflow.epoch_rtt_us.mesh"] = rttRung(b, 2, 1) },
		transportRung,
		genRung,
	}
	r := PhaseResult{Metrics: map[string]float64{}}
	for _, run := range rungs {
		run(total/time.Duration(len(rungs)), r.Metrics)
	}
	return r
}

// loop calls f until the budget is spent and returns the calls made and
// the time taken.
func loop(budget time.Duration, f func()) (calls int, elapsed time.Duration) {
	start := time.Now()
	for elapsed < budget {
		for i := 0; i < 8; i++ {
			f()
		}
		calls += 8
		elapsed = time.Since(start)
	}
	return calls, elapsed
}

// pump feeds a started execution closed-loop, one batch per input per
// epoch and at most window epochs ahead of the frontier, for the budget,
// then closes the inputs and waits for the drain. It returns the epochs fed
// and the time until drained.
func pump(exec *dataflow.Execution, probe *dataflow.Probe, budget time.Duration, window int64,
	send func(e core.Time), advance func(e core.Time), closeAll func()) (epochs int64, elapsed time.Duration) {
	start := time.Now()
	for e := int64(1); time.Since(start) < budget; e++ {
		for {
			f := probe.Frontier()
			if f == core.None || e-int64(f) < window {
				break
			}
			runtime.Gosched()
		}
		send(core.Time(e))
		advance(core.Time(e + 1))
		epochs = e
	}
	closeAll()
	exec.Wait()
	return epochs, time.Since(start)
}

// applyRung is a one-worker keycount over a warm domain: the cost of
// routing a record through F and applying it in S, and the single-thread
// baseline of the kc-* workloads.
func applyRung(budget time.Duration, logBins int) float64 {
	const logKeys, batch = 20, 1 << 14
	codec, _ := core.CodecByName("binary")
	params := keycount.Params{Variant: keycount.HashCount, LogBins: logBins, Domain: 1 << logKeys, Transfer: codec}
	handles := &keycount.Handles{Hash: &core.Handle[uint64, keycount.HashState, keycount.Out]{}}
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[uint64]
	var ctl *dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		var ctlStream dataflow.Stream[core.Move]
		var data dataflow.Stream[uint64]
		ctl, ctlStream = dataflow.NewInput[core.Move](w, "control")
		in, data = dataflow.NewInput[uint64](w, "data")
		probe = dataflow.NewProbe(w, keycount.Build(w, params, ctlStream, data, handles))
	})
	exec.Start()
	advance := func(e core.Time) {
		ctl.AdvanceTo(e)
		in.AdvanceTo(e)
	}
	// Warm: every key once, at epoch 0, then wait for it to be applied.
	for k := uint64(0); k < 1<<logKeys; k += batch {
		keys := make([]uint64, batch)
		for i := range keys {
			keys[i] = k + uint64(i)
		}
		in.SendBatchAt(0, keys)
	}
	advance(1)
	for probe.Frontier() < 1 {
		time.Sleep(50 * time.Microsecond)
	}
	var wl harness.Workload
	epochs, elapsed := pump(exec, probe, budget, 4,
		func(e core.Time) {
			keys := make([]uint64, batch)
			wl.Fill(keys, 1<<logKeys, 0, int64(e))
			in.SendBatchAt(e, keys)
		},
		advance,
		func() { ctl.Close(); in.Close() })
	return float64(elapsed.Nanoseconds()) / float64(epochs*batch)
}

// codecRung encodes and decodes one keycount bin of 2^14 keys with the
// binary transfer codec: what an all-at-once migration spends its time on.
func codecRung(budget time.Duration, mt map[string]float64) {
	const keys = 1 << 14
	codec, _ := core.CodecByName("binary")
	m := make(map[uint64]uint64, keys)
	for k := uint64(0); k < keys; k++ {
		m[core.Mix64(k)] = k%7 + 1
	}
	bin := &core.BinState[uint64, keycount.HashState]{State: &keycount.HashState{M: m}}
	var buf []byte
	calls, elapsed := loop(budget/2, func() {
		var err error
		if buf, err = codec.EncodeBin(bin, buf[:0]); err != nil {
			panic(err)
		}
	})
	mt["core.encode_ns_key"] = float64(elapsed.Nanoseconds()) / float64(calls*keys)
	mt["core.state_bytes_key"] = float64(len(buf)) / keys
	calls, elapsed = loop(budget/2, func() {
		into := &core.BinState[uint64, keycount.HashState]{State: &keycount.HashState{}}
		if err := codec.DecodeBin(into, buf); err != nil {
			panic(err)
		}
	})
	mt["core.decode_ns_key"] = float64(elapsed.Nanoseconds()) / float64(calls*keys)
}

// binencRung round-trips a []uint64 through the wire encoding the mesh
// uses for keycount records.
func binencRung(budget time.Duration, mt map[string]float64) {
	xs := make([]uint64, 4096)
	for i := range xs {
		xs[i] = core.Mix64(uint64(i))
	}
	var buf []byte
	var sink uint64
	calls, elapsed := loop(budget, func() {
		buf = binenc.AppendU64s(buf[:0], xs)
		back, _, err := binenc.U64s(buf)
		if err != nil {
			panic(err)
		}
		sink += back[0]
	})
	runtime.KeepAlive(sink)
	mt["binenc.u64s_ns_elem"] = float64(elapsed.Nanoseconds()) / float64(calls*len(xs))
}

// planRung renders the workloads' stepped plans: the 64-step Fluid plan at
// 2^8 bins and the 64-step Batched plan at 2^16.
func planRung(budget time.Duration, mt map[string]float64) {
	for _, c := range []struct {
		name           string
		logBins, batch int
		strategy       plan.Strategy
	}{{"plan.build_us.bins8", 8, 0, plan.Fluid}, {"plan.build_us.bins16", 16, 256, plan.Batched}} {
		initial, imbalanced := Assignments(1<<uint(c.logBins), 2)
		steps := 0
		calls, elapsed := loop(budget/2, func() {
			steps += len(plan.Build(c.strategy, initial, imbalanced, c.batch).Steps)
		})
		if steps != 64*calls {
			panic("plan rung: the stepped plan no longer has 64 steps")
		}
		mt[c.name] = float64(elapsed.Nanoseconds()) / 1e3 / float64(calls)
	}
}

// progressRung applies the deltas of one record batch crossing a
// three-operator graph: the input's capability moving on an epoch, and the
// batch's pointstamp produced and consumed on each of two edges.
func progressRung(budget time.Duration, mt map[string]float64) {
	gb := progress.NewGraphBuilder()
	in := gb.AddNode("input", 0, 1)
	op := gb.AddNode("op", 1, 1)
	sink := gb.AddNode("probe", 1, 0)
	e0 := gb.AddEdge(progress.Port{Node: in}, progress.Port{Node: op})
	e1 := gb.AddEdge(progress.Port{Node: op}, progress.Port{Node: sink})
	tr := gb.Build()
	hold, edge0, edge1 := tr.CapLocation(progress.Port{Node: in}), tr.EdgeLocation(e0), tr.EdgeLocation(e1)
	var b progress.Batch
	b.Add(hold, 0, 1)
	tr.Apply(&b)
	t := progress.Time(0)
	calls, elapsed := loop(budget, func() {
		b.Reset()
		b.Add(edge0, t, 1)
		b.Add(hold, t+1, 1)
		b.Add(hold, t, -1)
		tr.Apply(&b)
		b.Reset()
		b.Add(edge0, t, -1)
		b.Add(edge1, t, 1)
		tr.Apply(&b)
		b.Reset()
		b.Add(edge1, t, -1)
		tr.Apply(&b)
		t++
	})
	if f := tr.Frontier(progress.Port{Node: sink}); f != t {
		panic("progress rung: the frontier did not follow the input")
	}
	mt["progress.apply_ns_delta"] = float64(elapsed.Nanoseconds()) / float64(calls*6)
}

// exchangeRung pushes records through a stateless two-worker exchange: the
// in-memory data path of kc-inproc without F and S.
func exchangeRung(budget time.Duration, mt map[string]float64) {
	const batch = 1 << 13
	exec := dataflow.NewExecution(dataflow.Config{Workers: 2})
	var ins []*dataflow.InputHandle[uint64]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		in, data := dataflow.NewInput[uint64](w, "data")
		ins = append(ins, in)
		p := dataflow.NewProbe(w, operators.ExchangeBy(w, "exchange", data, core.Mix64))
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()
	var wl harness.Workload
	epochs, elapsed := pump(exec, probe, budget, 4,
		func(e core.Time) {
			for g, in := range ins {
				keys := make([]uint64, batch)
				wl.Fill(keys, 1<<20, g, int64(e))
				in.SendBatchAt(e, keys)
			}
		},
		func(e core.Time) {
			for _, in := range ins {
				in.AdvanceTo(e)
			}
		},
		func() {
			for _, in := range ins {
				in.Close()
			}
		})
	mt["dataflow.exchange_ns_rec"] = float64(elapsed.Nanoseconds()) / float64(epochs*batch*int64(len(ins)))
}

// rttRung measures, on an empty input -> probe graph, the time from
// advancing every input past an epoch to the frontier passing it: the floor
// under every latency, and the unit a stepped plan's duration is counted
// in. It returns the median in microseconds.
func rttRung(budget time.Duration, procs, workers int) float64 {
	var specs []dataflow.ClusterSpec
	if procs > 1 {
		var err error
		if specs, _, err = loopbackSpecs(procs, false); err != nil {
			panic(err)
		}
	}
	execs := make([]*dataflow.Execution, procs)
	ins := make([][]*dataflow.InputHandle[uint64], procs)
	var probe *dataflow.Probe
	var wg sync.WaitGroup
	for p := range execs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var mesh *dataflow.Mesh
			if specs != nil {
				var err error
				if mesh, err = dataflow.JoinMesh(specs[p]); err != nil {
					panic(err)
				}
			}
			execs[p] = dataflow.NewExecution(dataflow.Config{Workers: workers, Mesh: mesh})
			execs[p].Build(func(w *dataflow.Worker) {
				in, data := dataflow.NewInput[uint64](w, "data")
				ins[p] = append(ins[p], in)
				pr := dataflow.NewProbe(w, data)
				if w.Index() == 0 {
					probe = pr
				}
			})
			execs[p].Start()
		}(p)
	}
	wg.Wait()
	var rtts []float64
	start := time.Now()
	for e := core.Time(0); time.Since(start) < budget; e++ {
		t0 := time.Now()
		for _, pi := range ins {
			for _, in := range pi {
				in.AdvanceTo(e + 1)
			}
		}
		for probe.Frontier() <= e {
			runtime.Gosched()
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for _, pi := range ins {
		for _, in := range pi {
			in.Close()
		}
	}
	for _, ex := range execs {
		wg.Add(1)
		go func(ex *dataflow.Execution) { defer wg.Done(); ex.Wait() }(ex)
	}
	wg.Wait()
	return Median(rtts)
}

// transportRung sends frames between two transports Dialed over loopback,
// with a bounded send window as the mesh's flushing gives it: 1 KiB frames
// for bandwidth, 16-byte frames for the cost of a frame.
func transportRung(budget time.Duration, mt map[string]float64) {
	specs, _, err := loopbackSpecs(2, false)
	if err != nil {
		panic(err)
	}
	var received atomic.Int64
	var ts [2]*transport.Transport
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := func(from int, kind byte, payload []byte) { received.Add(1) }
			tr, err := transport.Dial(transport.Config{Addrs: specs[i].Hosts, Index: i, Listener: specs[i].Listener, DialTimeout: 10 * time.Second}, h)
			if err != nil {
				panic(err)
			}
			ts[i] = tr
		}(i)
	}
	wg.Wait()
	const window = 4096
	send := func(budget time.Duration, size int) (frames int64, elapsed time.Duration) {
		payload := make([]byte, size)
		base := received.Load()
		start := time.Now()
		for time.Since(start) < budget {
			for i := 0; i < 256; i++ {
				ts[1].Send(0, transport.KindUser, payload)
			}
			frames += 256
			for frames-(received.Load()-base) > window {
				time.Sleep(20 * time.Microsecond)
			}
		}
		for received.Load()-base < frames {
			time.Sleep(20 * time.Microsecond)
		}
		return frames, time.Since(start)
	}
	frames, elapsed := send(budget/2, 1024)
	mt["transport.send_mb_s"] = float64(frames) * 1024 / 1e6 / elapsed.Seconds()
	frames, elapsed = send(budget/2, 16)
	mt["transport.frame_ns"] = float64(elapsed.Nanoseconds()) / float64(frames)
	for _, tr := range ts {
		wg.Add(1)
		go func(tr *transport.Transport) { defer wg.Done(); tr.Finish(20 * time.Second) }(tr)
	}
	wg.Wait()
}

// genRung times the generators alone. This is the benchmark's own
// overhead inside cpu_ns_rec, not a layer of the engine: a change here is
// a change to the benchmark.
func genRung(budget time.Duration, mt map[string]float64) {
	var wl harness.Workload
	keys := make([]uint64, 1<<14)
	e := int64(0)
	calls, elapsed := loop(budget/2, func() {
		wl.Fill(keys, 1<<22, 0, e)
		e++
	})
	mt["harness.gen_ns_rec.kc"] = float64(elapsed.Nanoseconds()) / float64(calls*len(keys))
	gen := nexmark.NewGen(nexmark.GenConfig{})
	const n = 1000
	var kinds int
	calls, elapsed = loop(budget/2, func() {
		for _, ev := range gen.Batch(0, 2, nexmark.Time(e), 2*n, n) {
			kinds += int(ev.Kind)
		}
		e++
	})
	runtime.KeepAlive(kinds)
	mt["harness.gen_ns_rec.nx"] = float64(elapsed.Nanoseconds()) / float64(calls*n)
}
