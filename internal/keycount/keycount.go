// Package keycount implements the counting micro-benchmark of Sections 5.2
// and 5.3 of the Megaphone paper: a stream of identifiers drawn uniformly
// from a domain, with the query reporting the cumulative count of each
// identifier. Two variants exist: "hash count" whose bins are hash maps, and
// "key count" whose bins are dense arrays (removing hashing cost); each also
// has a native (non-migratable) implementation for the overhead comparison.
package keycount

import (
	"math/bits"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Variant selects the benchmark implementation.
type Variant int

const (
	// HashCount uses per-bin hash maps and a mixed key hash.
	HashCount Variant = iota
	// KeyCount uses per-bin dense arrays indexed by key.
	KeyCount
	// NativeHash is the non-migratable timely state machine with a map.
	NativeHash
	// NativeKey is the non-migratable version with one dense array.
	NativeKey
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case HashCount:
		return "hash-count"
	case KeyCount:
		return "key-count"
	case NativeHash:
		return "native-hash"
	case NativeKey:
		return "native-key"
	default:
		return "unknown"
	}
}

// Params configures the benchmark dataflow.
type Params struct {
	Variant  Variant
	LogBins  int             // megaphone bin count (power of two)
	Domain   int64           // number of distinct keys; must be a power of two
	Transfer core.Codec      // state codec (core.TransferBinary when nil)
	Preload  bool            // pre-create one entry per key before starting
	Meter    *core.LoadMeter // per-bin load metering (nil disables)
	// ServiceNanos simulates per-record service time: each worker's fold
	// accumulates the owed nanoseconds and sleeps them off in coarse
	// chunks, capping that worker's serial throughput at 1e9/ServiceNanos
	// records/s. Because the cost is slept rather than burned, the cap is
	// machine-independent — skew scenarios saturate a single worker at
	// laptop rates without needing real cores behind every worker. 0
	// disables.
	ServiceNanos int64
	// Checkpoint enables epoch-aligned checkpoints of the migrateable
	// variants (nil disables); Restore installs a loaded checkpoint before
	// the run starts. See core.CheckpointConfig / core.LoadRestore.
	Checkpoint *core.CheckpointConfig
	Restore    *core.Restore
}

// OpName returns the megaphone operator name of a migrateable variant —
// the checkpoint subdirectory its state is drained into ("" for native
// variants, which have no migrateable state).
func (p Params) OpName() string {
	switch p.Variant {
	case HashCount:
		return "hash-count"
	case KeyCount:
		return "key-count"
	default:
		return ""
	}
}

// serviceSleeper levies simulated service time. Fine-grained sleeps drown
// in timer granularity, so it accumulates owed time and sleeps it off in
// chunks, crediting the overshoot back. The chunk is kept well under the
// epoch interval: while a worker sleeps it processes nothing — including
// progress traffic — so millisecond chunks would add a milliseconds-scale
// floor to every epoch's completion latency once a dozen workers sleep
// independently. One per worker instance.
type serviceSleeper struct {
	perRecord int64
	owed      int64
}

const sleepChunk = int64(250 * time.Microsecond)

func (s *serviceSleeper) apply() {
	s.owed += s.perRecord
	if s.owed >= sleepChunk {
		d := time.Duration(s.owed)
		start := time.Now()
		time.Sleep(d)
		s.owed -= int64(time.Since(start))
	}
}

// Out is the query's output: the key and its updated cumulative count.
type Out struct {
	Key   uint64
	Count uint64
}

// HashState is the per-bin map state of the hash-count variant.
type HashState struct {
	M map[uint64]uint64
}

// ArrayState is the per-bin dense state of the key-count variant.
type ArrayState struct {
	Counts []uint64
}

// logDomain returns log2 of the (power-of-two) domain.
func logDomain(domain int64) int {
	l := bits.TrailingZeros64(uint64(domain))
	if int64(1)<<uint(l) != domain {
		panic("keycount: domain must be a power of two")
	}
	return l
}

// DenseHash positions key uniformly by its value: the top bits of the hash
// are the key's bits, so each bin covers a contiguous key range and dense
// per-bin arrays apply.
func DenseHash(key uint64, domain int64) uint64 {
	return key << uint(64-logDomain(domain))
}

// denseHasher returns DenseHash with the domain's shift hoisted out: the
// hash runs once per record on the routing hot path, where recomputing (and
// re-validating) log2(domain) per call is measurable.
func denseHasher(domain int64) func(uint64) uint64 {
	shift := uint(64 - logDomain(domain))
	return func(key uint64) uint64 { return key << shift }
}

// Build wires the counting query on worker w, fed by data (keys) and, for
// migrateable variants, steered by control. It returns the output stream.
// handle is optional instrumentation shared across workers (allocate one
// per run and pass the same pointer to every worker's Build call).
type Handles struct {
	Hash *core.Handle[uint64, HashState, Out]
	Key  *core.Handle[uint64, ArrayState, Out]
}

// Build constructs the benchmark dataflow for one worker.
func Build(w *dataflow.Worker, p Params, control dataflow.Stream[core.Move], data dataflow.Stream[uint64], h *Handles) dataflow.Stream[Out] {
	var svc *serviceSleeper
	if p.ServiceNanos > 0 {
		svc = &serviceSleeper{perRecord: p.ServiceNanos}
	}
	switch p.Variant {
	case HashCount:
		return core.Unary(w,
			core.Config{Name: "hash-count", LogBins: p.LogBins, Transfer: p.Transfer, Meter: p.Meter,
				Checkpoint: p.Checkpoint, Restore: p.Restore},
			control, data,
			func(k uint64) uint64 { return core.Mix64(k) },
			func() *HashState { return &HashState{M: make(map[uint64]uint64)} },
			func(t core.Time, k uint64, s *HashState, _ *core.Notificator[uint64, HashState, Out], emit func(Out)) {
				if svc != nil {
					svc.apply()
				}
				s.M[k]++
				emit(Out{Key: k, Count: s.M[k]})
			},
			h.Hash)
	case KeyCount:
		binSpan := p.Domain >> uint(p.LogBins)
		if binSpan < 1 {
			binSpan = 1
		}
		domain := p.Domain
		return core.Unary(w,
			core.Config{Name: "key-count", LogBins: p.LogBins, Transfer: p.Transfer, Meter: p.Meter,
				Checkpoint: p.Checkpoint, Restore: p.Restore},
			control, data,
			denseHasher(domain),
			func() *ArrayState { return &ArrayState{Counts: make([]uint64, binSpan)} },
			func(t core.Time, k uint64, s *ArrayState, _ *core.Notificator[uint64, ArrayState, Out], emit func(Out)) {
				if svc != nil {
					svc.apply()
				}
				slot := k & uint64(binSpan-1)
				s.Counts[slot]++
				emit(Out{Key: k, Count: s.Counts[slot]})
			},
			h.Key)
	case NativeHash:
		return operators.UnaryNotify(w, "native-hash-count", data,
			dataflow.Exchange[uint64]{Hash: func(k uint64) uint64 { return core.Mix64(k) }},
			func() map[uint64]uint64 { return make(map[uint64]uint64) },
			func(t core.Time, keys []uint64, m map[uint64]uint64, emit func(Out)) {
				for _, k := range keys {
					m[k]++
					emit(Out{Key: k, Count: m[k]})
				}
			})
	case NativeKey:
		domain := p.Domain
		peers := uint64(w.Peers())
		return operators.UnaryNotify(w, "native-key-count", data,
			dataflow.Exchange[uint64]{Hash: func(k uint64) uint64 { return k }},
			func() []uint64 {
				// Each worker owns ~domain/peers keys; size for the worst
				// case to keep indexing branch-free.
				return make([]uint64, (uint64(domain)+peers-1)/peers+1)
			},
			func(t core.Time, keys []uint64, counts []uint64, emit func(Out)) {
				for _, k := range keys {
					slot := k / peers
					counts[slot]++
					emit(Out{Key: k, Count: counts[slot]})
				}
			})
	default:
		panic("keycount: unknown variant")
	}
}

// PreloadAll initializes one entry per key across all workers' bins
// according to the initial assignment.
func PreloadAll(p Params, peers int, h *Handles) {
	PreloadLocal(p, peers, h, 0, peers)
}

// PreloadLocal preloads only the bins initially assigned to workers in
// [first, first+n): in a cluster run each process holds state for its own
// workers only, and the initial assignment is computed against the global
// worker count.
func PreloadLocal(p Params, peers int, h *Handles, first, n int) {
	bins := 1 << uint(p.LogBins)
	assign := make([]int, bins)
	for b := range assign {
		assign[b] = core.InitialWorker(b, peers)
	}
	PreloadAssigned(p, assign, h, first, n)
}

// PreloadAssigned preloads the bins the given assignment places on workers in
// [first, first+n). Dynamic-membership runs pass the membership controller's
// initial (live-roster) assignment, under which absent slots own no bins.
func PreloadAssigned(p Params, assign []int, h *Handles, first, n int) {
	local := func(w int) bool { return w >= first && w < first+n }
	switch p.Variant {
	case HashCount:
		// Touch each bin's map with a representative spread of keys. A full
		// preload of huge domains is prohibitive in tests; pre-size maps.
		for b, w := range assign {
			if !local(w) {
				continue
			}
			h.Hash.Preload(w, b, func(s *HashState) {
				if s.M == nil {
					s.M = make(map[uint64]uint64)
				}
			})
		}
	case KeyCount:
		for b, w := range assign {
			if !local(w) {
				continue
			}
			h.Key.Preload(w, b, func(s *ArrayState) {})
		}
	}
}
