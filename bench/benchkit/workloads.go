package benchkit

import (
	"hash/fnv"
	"runtime"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
)

// RunPhase runs one phase in this process and reports its metrics; the
// caller is the child process megabench starts per (workload, phase).
func RunPhase(ph Phase) PhaseResult {
	r := PhaseResult{Metrics: map[string]float64{}}
	var out *driveOut
	if ph.Workload.Query == "keycount" {
		out = runKeycount(&ph, &r)
	} else {
		out = runQ3(&ph, &r)
	}
	summarize(&ph, out, &r)
	r.Spans = out.tracer.Spans()
	return r
}

// memSnap is the part of runtime.MemStats the allocation counters use.
type memSnap struct {
	mallocs, bytes uint64
	numGC          uint32
	pauses         [256]uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs}
}

// pauseMaxSince is the longest stop-the-world pause, in ms, of the
// collections that ran after the earlier snapshot (the runtime keeps the
// last 256).
func (m memSnap) pauseMaxSince(earlier memSnap) float64 {
	var worst uint64
	for n := m.numGC; n > earlier.numGC && m.numGC-n < 256; n-- {
		worst = max(worst, m.pauses[(n+255)%256])
	}
	return float64(worst) / 1e6
}

// --- keycount ------------------------------------------------------------------

// warmChunk is the number of keys per worker per warm epoch.
const warmChunk = 1 << 14

// kcSink is one worker's counting sink. Workers never share one, so the
// counters need no synchronisation; the padding keeps two workers' sinks
// off one cache line.
type kcSink struct {
	timedFrom core.Time
	outputs   int64
	cold      int64 // timed outputs whose count shows the warm entry was lost
	_         [40]byte
}

func (s *kcSink) observe(t core.Time, data []keycount.Out) {
	s.outputs += int64(len(data))
	if t < s.timedFrom {
		return
	}
	for _, o := range data {
		if o.Count < 2 {
			s.cold++
		}
	}
}

func runKeycount(ph *Phase, r *PhaseResult) *driveOut {
	wl := ph.Workload
	logKeys := wl.LogKeys
	if ph.Shape.LogKeys != 0 {
		logKeys = ph.Shape.LogKeys
	}
	domain := uint64(1) << uint(logKeys)
	total := wl.Procs * wl.Workers
	perWorker := domain / uint64(total)
	codec := newCodec(ph.Trace)
	params := keycount.Params{
		Variant:  keycount.HashCount,
		LogBins:  wl.LogBins,
		Domain:   int64(domain),
		Transfer: codec.transfer(),
	}
	handles := make([]*keycount.Handles, wl.Procs)
	for p := range handles {
		handles[p] = &keycount.Handles{Hash: &core.Handle[uint64, keycount.HashState, keycount.Out]{}}
	}
	j := job[uint64]{first: 1, warmEpochs: int64(perWorker / warmChunk), codec: codec}
	sinks := make([]kcSink, total)
	for i := range sinks {
		sinks[i].timedFrom = core.Time(j.first + j.warmEpochs)
	}
	j.build = func(p int, w *dataflow.Worker, ctl dataflow.Stream[core.Move], in dataflow.Stream[uint64]) *dataflow.Probe {
		out := keycount.Build(w, params, ctl, in, handles[p])
		operators.Sink(w, "bench-sink", out, sinks[w.Index()].observe)
		return dataflow.NewProbe(w, out)
	}
	// One sweep of the whole domain: worker g owns a contiguous range of
	// keys and sends one chunk of it per warm epoch.
	j.warm = func(g int, i int64) []uint64 {
		keys := make([]uint64, warmChunk)
		base := uint64(g)*perWorker + uint64(i)*warmChunk
		for k := range keys {
			keys[k] = base + uint64(k)
		}
		return keys
	}
	keys := harness.Workload{Seed: ph.Seed}
	j.gen = func(g int, e int64, n int) []uint64 {
		out := make([]uint64, n)
		keys.Fill(out, domain, g, e)
		return out
	}

	out := drive(ph, j)

	// Outputs equal inputs, no timed output restarted from a lost entry,
	// and the state the run ends with holds every key with counts that sum
	// to everything ever sent.
	var outputs, cold int64
	for i := range sinks {
		outputs += sinks[i].outputs
		cold += sinks[i].cold
	}
	var injected int64
	for _, res := range out.results {
		injected += res.Records
	}
	warmed := int64(j.warmEpochs) * warmChunk * int64(total)
	if outputs != warmed+injected {
		r.fail(abs(outputs-warmed-injected), "keycount: %d outputs for %d inputs", outputs, warmed+injected)
	}
	if cold != 0 {
		r.fail(cold, "keycount: %d outputs counted from an empty entry after the warm sweep", cold)
	}
	var stateKeys, stateSum, migrated int64
	for p, h := range handles {
		for li := 0; li < wl.Workers; li++ {
			w := p*wl.Workers + li
			// The run has drained and no worker is left running, so reading
			// the bins through Preload's callback races with nothing.
			for b := 0; b < 1<<uint(wl.LogBins); b++ {
				h.Hash.Preload(w, b, func(s *keycount.HashState) {
					stateKeys += int64(len(s.M))
					for _, c := range s.M {
						stateSum += int64(c)
					}
				})
			}
			migrated += int64(h.Hash.Migrated(w))
		}
	}
	if stateKeys != warmed || stateSum != warmed+injected {
		r.fail(abs(stateSum-warmed-injected)+abs(stateKeys-warmed),
			"keycount: final state has %d keys summing to %d, want %d keys summing to %d", stateKeys, stateSum, warmed, warmed+injected)
	}
	r.Metrics["core.bins_moved"] = float64(migrated)
	// Every bin holds keys once the domain is much larger than the bin
	// count, and then every move of every plan ships one.
	finished := len(out.results[0].MigrationSpans) == ph.Shape.Migrations
	if initial, imbalanced := Assignments(1<<uint(wl.LogBins), total); ph.Kind == "paced" && finished && logKeys-wl.LogBins >= 6 {
		if want := int64(ph.Shape.Migrations * len(plan.Diff(initial, imbalanced))); migrated != want {
			r.fail(abs(migrated-want), "keycount: %d bins were shipped, the plans move %d", migrated, want)
		}
	}
	return out
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// --- NEXMark q3 ---------------------------------------------------------------------

// q3Category is the auction category q3 joins on, and q3States the states
// of the people it keeps (the query's own constants, restated for the
// reference computation).
const q3Category = 10

var q3States = map[string]bool{"OR": true, "ID": true, "CA": true}

// q3Sink counts and digests one worker's outputs.
type q3Sink struct {
	outputs int64
	digest  uint64 // order-independent: a wrapping sum of per-record hashes
	_       [48]byte
}

func q3Hash(name, city, state string, auction uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(city))
	h.Write([]byte{0})
	h.Write([]byte(state))
	return core.Mix64(h.Sum64() ^ core.Mix64(auction))
}

func (s *q3Sink) observe(_ core.Time, data []nexmark.Q3Out) {
	s.outputs += int64(len(data))
	for _, o := range data {
		s.digest += q3Hash(o.Name, o.City, o.State, o.Auction)
	}
}

// q3Seen keeps, of the batches one worker's generator hands out, the events
// q3 can join: the wanted persons and the auctions in the category, about
// one event in a hundred. The reference is computed from them after the
// run, so it covers every event of the run, every migration included, at
// the cost of two comparisons per generated event.
type q3Seen struct {
	persons  []nexmark.Person
	auctions []nexmark.Auction
	_        [16]byte
}

func (s *q3Seen) note(batch []nexmark.Event) []nexmark.Event {
	for i := range batch {
		switch ev := &batch[i]; {
		case ev.Kind == nexmark.PersonKind && q3States[ev.Person.State]:
			s.persons = append(s.persons, ev.Person)
		case ev.Kind == nexmark.AuctionKind && ev.Auction.Category == q3Category:
			s.auctions = append(s.auctions, ev.Auction)
		}
	}
	return batch
}

// q3Reference computes q3's output from what the generators handed out:
// every (wanted person, auction in the category) pair with the auction's
// seller being that person. The output multiset does not depend on arrival
// order, so neither does the digest.
func q3Reference(seen []q3Seen) (n int64, digest uint64) {
	persons := map[uint64]nexmark.Person{}
	for i := range seen {
		for _, p := range seen[i].persons {
			if _, dup := persons[p.ID]; !dup {
				persons[p.ID] = p
			}
		}
	}
	for i := range seen {
		for _, a := range seen[i].auctions {
			if p, ok := persons[a.Seller]; ok {
				n++
				digest += q3Hash(p.Name, p.City, p.State, a.ID)
			}
		}
	}
	return n, digest
}

func runQ3(ph *Phase, r *PhaseResult) *driveOut {
	wl := ph.Workload
	total := wl.Procs * wl.Workers
	perEpoch := int(float64(phaseRate(ph)) * Epoch.Seconds())
	codec := newCodec(ph.Trace)
	params := nexmark.Params{Impl: nexmark.Megaphone, LogBins: wl.LogBins, Category: q3Category, Transfer: codec.transfer()}
	gen := nexmark.NewGen(nexmark.GenConfig{})
	// The seed moves the origin of the event stream: event numbers follow
	// from the epoch, so another origin is another stretch of the stream.
	j := job[nexmark.Event]{first: 1 + int64(ph.Seed%100_000)*100, warmEpochs: wl.WarmEvents / int64(perEpoch), codec: codec}
	if ph.Shape.LogKeys != 0 {
		j.warmEpochs /= 64 // -smoke
	}
	sinks := make([]q3Sink, total)
	seen := make([]q3Seen, total)
	j.build = func(p int, w *dataflow.Worker, ctl dataflow.Stream[core.Move], in dataflow.Stream[nexmark.Event]) *dataflow.Probe {
		out := nexmark.BuildQ3(w, params, ctl, in)
		operators.Sink(w, "bench-sink", out, sinks[w.Index()].observe)
		return dataflow.NewProbe(w, out)
	}
	j.warm = func(g int, i int64) []nexmark.Event {
		return seen[g].note(gen.Batch(g, total, nexmark.Time(j.first+i), perEpoch, share(perEpoch, total, g)))
	}
	j.gen = func(g int, e int64, n int) []nexmark.Event {
		return seen[g].note(gen.Batch(g, total, nexmark.Time(e), perEpoch, n))
	}

	out := drive(ph, j)

	var outputs int64
	var digest uint64
	for i := range sinks {
		outputs += sinks[i].outputs
		digest += sinks[i].digest
	}
	wantN, wantDigest := q3Reference(seen)
	if outputs != wantN {
		r.fail(abs(outputs-wantN), "q3: %d outputs, the reference has %d", outputs, wantN)
	} else if digest != wantDigest {
		r.fail(1, "q3: output digest %x, the reference has %x", digest, wantDigest)
	}
	if wantN == 0 {
		r.fail(1, "q3: degenerate check: the reference has no outputs")
	}
	r.Metrics["q3.outputs"] = float64(outputs)
	if codec.on {
		r.Metrics["core.bins_moved"] = float64(codec.bins.Load())
	}
	return out
}
