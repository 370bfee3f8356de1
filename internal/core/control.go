// Package core implements Megaphone: latency-conscious state migration for
// streaming dataflows (Hoffmann et al., VLDB 2019).
//
// Megaphone splits a stateful, data-parallel operator L into a routing
// operator F and a hosting operator S (Section 3.4 of the paper). F routes
// keyed records according to a bin-to-worker routing table that is itself
// updated by a timely dataflow stream of configuration commands, each
// bearing the logical timestamp at which it takes effect. When the control
// frontier passes a command's time, and the output frontier of S shows that
// all earlier work has completed, F extracts the state of the moving bins
// from its co-located S instance and ships it — over an ordinary dataflow
// channel, at the command's timestamp — to the new owner. Frontier-ordered
// application in S guarantees that every update to a key at time t is
// applied at the worker the configuration assigns for t (Property 2), that
// outputs equal those of an unmigrated execution (Property 1), and that the
// computation keeps draining (Property 3).
package core

import (
	"megaphone/internal/dataflow"
)

// Time is the logical timestamp of the runtime.
type Time = dataflow.Time

// None is the empty-frontier sentinel.
const None = dataflow.None

// Move is one configuration command: as of its logical timestamp, Bin and
// the keys hashing to it live on Worker. Commands are data on a broadcast
// dataflow stream; their timestamp is the stream timestamp.
type Move struct {
	Bin    int
	Worker int
	// RestoreEpoch, when non-zero, marks a restore command: instead of
	// receiving the state over the wire, the new owner rebuilds it from the
	// checkpoint taken at this epoch (wherever in the checkpoint the bin was
	// written — the checkpoint's own assignment names the file), and every
	// worker holding the bin, the new owner included, drops its copy. The
	// command still changes ownership exactly like a plain move; it only
	// replaces the state's source. Zero is unambiguous because checkpoints
	// are only ever commanded at epochs > 0 (a command at 0 could never
	// become final).
	RestoreEpoch Time
}

// CheckpointBin is the Move.Bin sentinel marking a checkpoint command: a
// "migration to disk" of every worker's locally-owned bins, executed with
// exactly the prepare/complete epoch alignment of a real migration (all
// updates before the command's time applied, none at or after it). It never
// collides with a real bin (bins are non-negative).
const CheckpointBin = -1

// CheckpointMove returns the checkpoint command. Like any configuration
// command it is broadcast on the control stream and takes effect at its
// stream timestamp; operators without a Config.Checkpoint ignore it (they
// still observe the same epoch-aligned stall, keeping every worker's
// frontier schedule identical).
func CheckpointMove() Move { return Move{Bin: CheckpointBin} }

// IsCheckpoint reports whether m is a checkpoint command.
func (m Move) IsCheckpoint() bool { return m.Bin == CheckpointBin }

// RestoreMove returns the command that assigns bin to worker and rebuilds
// its state from the checkpoint at epoch ckpt. Crash-leave issues one per
// bin it lost, and a recovering run one per bin, at the epoch before ckpt;
// the replay of inputs since ckpt is the driver's job (see harness), the
// command only recovers the bin as of ckpt.
func RestoreMove(bin, worker int, ckpt Time) Move {
	return Move{Bin: bin, Worker: worker, RestoreEpoch: ckpt}
}

// IsRestore reports whether m is a restore command.
func (m Move) IsRestore() bool { return m.RestoreEpoch != 0 }

// Mix64 finalizes a 64-bit value into a well-distributed hash (the
// splitmix64 finalizer). Megaphone assigns keys to bins by the *most
// significant* bits of the exchange hash (Section 4.2), so exchange
// functions built from small integer keys should pass through Mix64.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BinOf returns the bin of a hash for a given log2 bin count: the top
// logBins bits.
func BinOf(hash uint64, logBins int) int {
	if logBins == 0 {
		return 0
	}
	return int(hash >> (64 - uint(logBins)))
}

// InitialWorker is the default assignment of bins to workers before any
// configuration command: round-robin.
func InitialWorker(bin, peers int) int { return bin % peers }
