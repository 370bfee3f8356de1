package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"megaphone/internal/binenc"
)

// Epoch-aligned checkpoint/restore: a checkpoint is a migration whose
// destination is disk. The CheckpointMove control command rides the same
// broadcast stream as migrations, becomes final when the control frontier
// passes its time T, and executes when the output frontier shows every
// update before T applied — at which point each worker's locally-owned bins
// are exactly the consistent cut at T, and the only state worth persisting.
// F serializes them with the operator's migration codec — the bytes a bin
// crossing processes puts on the wire — and writes one record per bin plus
// a manifest (epoch, the bin→worker assignment in effect, the live roster,
// per-record digests) to CheckpointConfig.Dir. A restarting process loads
// the newest epoch whose every *live* worker's manifest is present (dead
// slots own no bins and write nothing), reinstalls its workers' bins through
// the same install path a migration uses, and resumes input at T.

// CheckpointConfig enables checkpointing on a megaphone operator
// (Config.Checkpoint). The directory is shared by every worker of the
// execution in local clusters and tests; each worker writes only its own
// files, so no coordination beyond the filesystem is needed.
type CheckpointConfig struct {
	// Dir is the checkpoint root; the operator writes under Dir/<op-name>/.
	Dir string
	// OnCheckpoint, when non-nil, observes every completed per-worker
	// checkpoint write (instrumentation; called on worker goroutines).
	OnCheckpoint func(epoch Time, worker, bins int, bytes int64, elapsed time.Duration)
	// OnError, when non-nil, observes a failed checkpoint write. Write
	// failures are non-fatal by design: the worker's manifest is simply
	// never committed, which invalidates the epoch for recovery (the
	// previous complete epoch remains usable) while the run itself keeps
	// streaming — a full disk must not turn into the process death
	// checkpoints exist to survive. nil logs to stderr.
	OnError func(epoch Time, worker int, err error)
	// LiveAt, when non-nil, names the global worker indices live at a
	// checkpoint epoch (sorted ascending). Manifests record it, making a
	// checkpoint taken on a shrunk roster complete — and restorable — once
	// every *live* worker's manifest exists: dead slots own no bins at the
	// epoch, so their absent manifests certify nothing. nil means the full
	// roster is always live (the static-membership default).
	LiveAt func(epoch Time) []int
}

// liveWorkers resolves the live roster recorded at a checkpoint epoch; nil
// means the full roster.
func (c *CheckpointConfig) liveWorkers(epoch Time) []int {
	if c.LiveAt == nil {
		return nil
	}
	return c.LiveAt(epoch)
}

// reportError routes a non-fatal checkpoint failure.
func (c *CheckpointConfig) reportError(epoch Time, worker int, err error) {
	if c.OnError != nil {
		c.OnError(epoch, worker, err)
		return
	}
	fmt.Fprintf(os.Stderr, "megaphone: checkpoint at epoch %d on worker %d failed (epoch not committed): %v\n", epoch, worker, err)
}

// Restore carries a loaded checkpoint into Operator via Config.Restore: the
// bin→worker assignment in effect at the checkpoint epoch and the
// serialized payloads of the bins owned by this process's workers. Build it
// with LoadRestore.
type Restore struct {
	// Epoch is the checkpoint's logical time; drivers resume input there.
	Epoch Time
	// LogBins must match the operator's Config.LogBins.
	LogBins int
	// Assignment maps every bin to its owning worker at Epoch.
	Assignment []int
	// Bins maps locally-owned bins to their codec payloads.
	Bins map[int][]byte
}

// Manifest is the per-worker commit record of one checkpoint epoch: it is
// written (atomically, via rename) only after every bin record reached disk,
// so its presence certifies the data file, and an epoch is complete exactly
// when all *live* workers' manifests exist — Live records the roster at the
// epoch (nil means the full roster [0, Peers)), so a checkpoint taken after
// a crash-leave is complete without the dead slot's manifest.
type Manifest struct {
	Op         string        `json:"op"`
	Epoch      uint64        `json:"epoch"`
	Worker     int           `json:"worker"`
	Peers      int           `json:"peers"`
	Live       []int         `json:"live,omitempty"`
	LogBins    int           `json:"log_bins"`
	Codec      string        `json:"codec"`
	Assignment []int         `json:"assignment"`
	Bins       []BinManifest `json:"bins"`
	Bytes      int64         `json:"bytes"`
}

// liveSet resolves the worker set this manifest certifies as live; a nil
// Live field means the full roster.
func (m *Manifest) liveSet(peers int) []int {
	if len(m.Live) > 0 {
		return m.Live
	}
	all := make([]int, peers)
	for i := range all {
		all[i] = i
	}
	return all
}

// BinManifest records one drained bin: its payload size and the FNV-64a
// digest of each of its records, in record order (one digest for a bin
// this build wrote; see ckptRecord).
type BinManifest struct {
	Bin     int      `json:"bin"`
	Bytes   int64    `json:"bytes"`
	Digests []string `json:"chunk_digests"`
}

// checkpoint file layout under CheckpointConfig.Dir:
//
//	<dir>/<op>/epoch-<E>/bins-w<idx>.dat      record stream (see ckptRecord)
//	<dir>/<op>/epoch-<E>/manifest-w<idx>.json commit record, written last
//
// A record is: uvarint bin, uvarint seq, bool last, uvarint len, payload
// bytes, 8-byte big-endian FNV-64a digest of the payload.
const (
	ckptMagic       = "MPCK1\n"
	ckptEpochPrefix = "epoch-"
)

func ckptEpochDir(dir, op string, epoch Time) string {
	return filepath.Join(dir, op, ckptEpochPrefix+strconv.FormatUint(uint64(epoch), 10))
}

func ckptManifestPath(dir, op string, epoch Time, worker int) string {
	return filepath.Join(ckptEpochDir(dir, op, epoch), fmt.Sprintf("manifest-w%d.json", worker))
}

func ckptBinsPath(dir, op string, epoch Time, worker int) string {
	return filepath.Join(ckptEpochDir(dir, op, epoch), fmt.Sprintf("bins-w%d.dat", worker))
}

func chunkDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ckptRecord is one record of a checkpoint data file: a bin's payload, or a
// piece of it. The writer emits each bin as a single record (Seq 0, Last);
// the reader also accepts a bin split over several records in Seq order,
// the layout earlier builds wrote, so their checkpoints still restore.
type ckptRecord struct {
	Bin   int
	Seq   int    // index of this piece within the bin's payload
	Last  bool   // final piece of the bin
	Bytes []byte // the piece of the codec-serialized BinState
}

// CheckpointWriter streams one worker's bins into a checkpoint epoch
// directory. WriteBin appends one bin's payload; Finish writes the
// manifest, committing the checkpoint for this worker.
type CheckpointWriter struct {
	dir, op string
	epoch   Time
	worker  int
	f       *os.File
	scratch []byte
	bins    []BinManifest
	bytes   int64
}

// NewCheckpointWriter creates the epoch directory and opens this worker's
// data file.
func NewCheckpointWriter(dir, op string, epoch Time, worker int) (*CheckpointWriter, error) {
	ed := ckptEpochDir(dir, op, epoch)
	if err := os.MkdirAll(ed, 0o777); err != nil {
		return nil, fmt.Errorf("megaphone: creating checkpoint dir: %w", err)
	}
	f, err := os.Create(ckptBinsPath(dir, op, epoch, worker))
	if err != nil {
		return nil, fmt.Errorf("megaphone: creating checkpoint data file: %w", err)
	}
	w := &CheckpointWriter{dir: dir, op: op, epoch: epoch, worker: worker, f: f}
	if _, err := f.WriteString(ckptMagic); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// WriteBin appends one bin's codec payload to the data file as a single
// record and notes its digest for the manifest.
func (w *CheckpointWriter) WriteBin(bin int, payload []byte) error {
	d, err := w.writeRecord(ckptRecord{Bin: bin, Last: true, Bytes: payload})
	if err != nil {
		return err
	}
	w.bytes += int64(len(payload))
	w.bins = append(w.bins, BinManifest{Bin: bin, Bytes: int64(len(payload)), Digests: []string{strconv.FormatUint(d, 16)}})
	return nil
}

// writeRecord appends one record to the data file and returns the digest
// of its payload.
func (w *CheckpointWriter) writeRecord(r ckptRecord) (uint64, error) {
	buf := w.scratch[:0]
	buf = binenc.AppendUvarint(buf, uint64(r.Bin))
	buf = binenc.AppendUvarint(buf, uint64(r.Seq))
	buf = binenc.AppendBool(buf, r.Last)
	buf = binenc.AppendUvarint(buf, uint64(len(r.Bytes)))
	buf = append(buf, r.Bytes...)
	d := chunkDigest(r.Bytes)
	buf = binary.BigEndian.AppendUint64(buf, d)
	w.scratch = buf
	if _, err := w.f.Write(buf); err != nil {
		return 0, fmt.Errorf("megaphone: writing checkpoint record: %w", err)
	}
	return d, nil
}

// Bins returns the number of bins written so far.
func (w *CheckpointWriter) Bins() int { return len(w.bins) }

// Bytes returns the payload bytes written so far.
func (w *CheckpointWriter) Bytes() int64 { return w.bytes }

// Finish fsyncs the data file and commits the manifest via atomic rename.
// live names the global worker indices live at the checkpoint epoch (nil =
// full roster); every writer of one epoch must record the same set.
func (w *CheckpointWriter) Finish(peers, logBins int, codec string, assignment, live []int) error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	m := Manifest{
		Op:         w.op,
		Epoch:      uint64(w.epoch),
		Worker:     w.worker,
		Peers:      peers,
		Live:       live,
		LogBins:    logBins,
		Codec:      codec,
		Assignment: assignment,
		Bins:       w.bins,
		Bytes:      w.bytes,
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	path := ckptManifestPath(w.dir, w.op, w.epoch, w.worker)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return fmt.Errorf("megaphone: writing checkpoint manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("megaphone: committing checkpoint manifest: %w", err)
	}
	return nil
}

// Abort closes the data file without committing (a partial data file with
// no manifest is ignored by recovery).
func (w *CheckpointWriter) Abort() { w.f.Close() }

// LatestCheckpoint scans dir for the newest epoch at which every operator
// subdirectory holds a manifest for every worker the epoch's manifests name
// as live (the full roster [0, peers) when no live set was recorded). It
// returns the epoch and the operator names found; ok is false when no
// complete epoch exists (including when dir is empty or absent).
func LatestCheckpoint(dir string, peers int) (epoch Time, ops []string, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("megaphone: reading checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			ops = append(ops, e.Name())
		}
	}
	if len(ops) == 0 {
		return 0, nil, false, nil
	}
	sort.Strings(ops)

	// Candidate epochs: those listed under the first operator; an epoch is
	// complete when every op has every worker's manifest for it.
	var epochs []Time
	sub, err := os.ReadDir(filepath.Join(dir, ops[0]))
	if err != nil {
		return 0, nil, false, err
	}
	for _, e := range sub {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, ckptEpochPrefix) {
			continue
		}
		v, perr := strconv.ParseUint(name[len(ckptEpochPrefix):], 10, 64)
		if perr != nil {
			continue
		}
		epochs = append(epochs, Time(v))
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })

	for _, ep := range epochs {
		complete := true
		for _, op := range ops {
			// Any present manifest names the roster live at the epoch; the
			// epoch is complete for this op when every live worker committed.
			// A dead slot's manifest is never written post-crash, and never
			// required: its bins belong to survivors at the epoch.
			m := anyManifest(dir, op, ep, peers)
			if m == nil || m.Peers != peers {
				complete = false
				break
			}
			for _, w := range m.liveSet(peers) {
				if _, serr := os.Stat(ckptManifestPath(dir, op, ep, w)); serr != nil {
					complete = false
					break
				}
			}
			if !complete {
				break
			}
		}
		if complete {
			return ep, ops, true, nil
		}
	}
	return 0, ops, false, nil
}

// anyManifest reads the first present, well-formed manifest of one
// operator's checkpoint epoch, scanning worker slots in index order. nil
// when none is readable.
func anyManifest(dir, op string, epoch Time, peers int) *Manifest {
	for w := 0; w < peers; w++ {
		data, err := os.ReadFile(ckptManifestPath(dir, op, epoch, w))
		if err != nil {
			continue
		}
		var m Manifest
		if json.Unmarshal(data, &m) == nil {
			return &m
		}
	}
	return nil
}

// LoadRestore reads one operator's checkpoint at epoch for the workers in
// [first, first+n): it verifies every manifest (peer count, codec,
// assignment agreement) and every record digest, reassembles bins split
// over several records, and returns the Restore to hand to Config.Restore.
// codec must name the codec the recovering run will decode with. Workers
// outside the checkpoint's recorded live roster wrote no manifest and own no
// bins; their absence is tolerated, so a shrunk-roster checkpoint maps onto
// the full worker space.
func LoadRestore(dir, op string, epoch Time, peers, first, n int, codec string) (*Restore, error) {
	r := &Restore{Epoch: epoch, Bins: make(map[int][]byte)}
	var live []int // live roster per the first manifest read
	var missing []int
	for w := first; w < first+n; w++ {
		data, err := os.ReadFile(ckptManifestPath(dir, op, epoch, w))
		if os.IsNotExist(err) {
			// Possibly a slot that was dead at the checkpoint epoch; judged
			// against the recorded live roster once a manifest is in hand.
			missing = append(missing, w)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d: %w", w, err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d: %w", w, err)
		}
		if m.Op != op || m.Epoch != uint64(epoch) || m.Worker != w {
			return nil, fmt.Errorf("megaphone: checkpoint manifest identity mismatch (op %q epoch %d worker %d)", m.Op, m.Epoch, m.Worker)
		}
		if m.Peers != peers {
			return nil, fmt.Errorf("megaphone: checkpoint was taken with %d workers, recovering with %d: worker counts must match", m.Peers, peers)
		}
		if m.Codec != codec {
			return nil, fmt.Errorf("megaphone: checkpoint was encoded with codec %q, recovering with %q: the payload format changed between the two builds", m.Codec, codec)
		}
		if r.Assignment == nil {
			r.LogBins = m.LogBins
			r.Assignment = m.Assignment
			live = m.liveSet(peers)
		} else if m.LogBins != r.LogBins || !equalInts(m.Assignment, r.Assignment) {
			return nil, fmt.Errorf("megaphone: checkpoint manifests disagree on the bin assignment (worker %d)", w)
		}
		if len(m.Assignment) != 1<<uint(m.LogBins) {
			return nil, fmt.Errorf("megaphone: checkpoint manifest assignment has %d bins, log_bins says %d", len(m.Assignment), 1<<uint(m.LogBins))
		}
		if err := loadBins(dir, op, epoch, w, &m, r); err != nil {
			return nil, err
		}
	}
	if len(missing) > 0 {
		if r.Assignment == nil {
			// Every requested worker's manifest is absent: consult any other
			// worker's to learn the roster and assignment (a joiner reviving
			// a slot that was dead at the epoch lands here).
			m := anyManifest(dir, op, epoch, peers)
			if m == nil {
				return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d: no manifest present at epoch %d", missing[0], epoch)
			}
			if m.Peers != peers {
				return nil, fmt.Errorf("megaphone: checkpoint was taken with %d workers, recovering with %d: worker counts must match", m.Peers, peers)
			}
			if m.Codec != codec {
				return nil, fmt.Errorf("megaphone: checkpoint was encoded with codec %q, recovering with %q: the payload format changed between the two builds", m.Codec, codec)
			}
			r.LogBins = m.LogBins
			r.Assignment = m.Assignment
			live = m.liveSet(peers)
		}
		for _, w := range missing {
			if containsInt(live, w) {
				return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d missing but the epoch records it live (incomplete checkpoint)", w)
			}
			for b, owner := range r.Assignment {
				if owner == w {
					return nil, fmt.Errorf("megaphone: checkpoint assigns bin %d to worker %d, which wrote no manifest (incomplete checkpoint)", b, w)
				}
			}
		}
	}
	return r, nil
}

// loadBins reads one worker's data file, verifying record digests against
// both the in-file digests and the manifest, and reassembles the payloads
// of bins split over several records.
func loadBins(dir, op string, epoch Time, worker int, m *Manifest, r *Restore) error {
	want := make(map[int]*BinManifest, len(m.Bins))
	for i := range m.Bins {
		bm := &m.Bins[i]
		if bm.Bin < 0 || bm.Bin >= len(m.Assignment) {
			return fmt.Errorf("megaphone: checkpoint manifest lists bin %d out of range", bm.Bin)
		}
		if m.Assignment[bm.Bin] != worker {
			return fmt.Errorf("megaphone: checkpoint manifest for worker %d lists bin %d owned by worker %d", worker, bm.Bin, m.Assignment[bm.Bin])
		}
		want[bm.Bin] = bm
	}
	data, err := os.ReadFile(ckptBinsPath(dir, op, epoch, worker))
	if err != nil {
		return fmt.Errorf("megaphone: checkpoint data for worker %d: %w", worker, err)
	}
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("megaphone: checkpoint data for worker %d: bad magic", worker)
	}
	data = data[len(ckptMagic):]

	var asm chunkAssembler
	seen := make(map[int]int) // bin -> records consumed (index into digests)
	for len(data) > 0 {
		var msg ckptRecord
		var v uint64
		if v, data, err = binenc.Uvarint(data); err != nil {
			return chunkErr(worker, err)
		}
		msg.Bin = int(v)
		if v, data, err = binenc.Uvarint(data); err != nil {
			return chunkErr(worker, err)
		}
		msg.Seq = int(v)
		if msg.Last, data, err = binenc.Bool(data); err != nil {
			return chunkErr(worker, err)
		}
		if v, data, err = binenc.Uvarint(data); err != nil {
			return chunkErr(worker, err)
		}
		if uint64(len(data)) < v+8 {
			return chunkErr(worker, io.ErrUnexpectedEOF)
		}
		msg.Bytes = data[:v]
		data = data[v:]
		fileDigest := binary.BigEndian.Uint64(data[:8])
		data = data[8:]

		bm := want[msg.Bin]
		if bm == nil {
			return fmt.Errorf("megaphone: checkpoint data for worker %d holds bin %d absent from its manifest", worker, msg.Bin)
		}
		idx := seen[msg.Bin]
		if idx >= len(bm.Digests) {
			return fmt.Errorf("megaphone: checkpoint bin %d has more records than its manifest lists", msg.Bin)
		}
		d := chunkDigest(msg.Bytes)
		if d != fileDigest || strconv.FormatUint(d, 16) != bm.Digests[idx] {
			return fmt.Errorf("megaphone: checkpoint bin %d record %d digest mismatch (corrupt checkpoint)", msg.Bin, idx)
		}
		seen[msg.Bin] = idx + 1
		// The assembler copies nothing for single-record bins, so detach the
		// payload from the file buffer explicitly.
		payload, done, err := asm.add(msg)
		if err != nil {
			return fmt.Errorf("megaphone: checkpoint data for worker %d: %w", worker, err)
		}
		if done {
			r.Bins[msg.Bin] = append([]byte(nil), payload...)
		}
	}
	for bin, bm := range want {
		if seen[bin] != len(bm.Digests) {
			return fmt.Errorf("megaphone: checkpoint bin %d truncated: %d of %d records present", bin, seen[bin], len(bm.Digests))
		}
	}
	return nil
}

// chunkAssembler reassembles the payloads of bins that a checkpoint data
// file splits over several records. A bin's records follow each other in
// Seq order; a payload is complete when its Last record arrives. Each
// record's Seq is checked against the expected next index, so a file that
// breaks the order is an error instead of a corrupt payload.
type chunkAssembler struct {
	partial map[int]*partialBin // bin -> accumulation in progress
}

type partialBin struct {
	buf  []byte
	next int // expected Seq of the next record
}

// add folds one record into the assembler and returns the complete payload
// when r finishes its bin, or done == false while records remain. An
// out-of-order or duplicate record is an error: the digests cover payloads,
// not the Seq and Last fields.
func (a *chunkAssembler) add(r ckptRecord) (payload []byte, done bool, err error) {
	if r.Seq == 0 && r.Last {
		if _, open := a.partial[r.Bin]; open {
			return nil, false, fmt.Errorf("single-record bin %d amid its record stream", r.Bin)
		}
		return r.Bytes, true, nil
	}
	if a.partial == nil {
		a.partial = make(map[int]*partialBin)
	}
	p := a.partial[r.Bin]
	if p == nil {
		p = &partialBin{}
		a.partial[r.Bin] = p
	}
	if r.Seq != p.next {
		return nil, false, fmt.Errorf("bin %d record out of order: got Seq %d, want %d", r.Bin, r.Seq, p.next)
	}
	p.next++
	p.buf = append(p.buf, r.Bytes...)
	if !r.Last {
		return nil, false, nil
	}
	delete(a.partial, r.Bin)
	return p.buf, true, nil
}

// LoadCheckpointBins reads the payloads of a specific set of bins from one
// operator's checkpoint at epoch, wherever they were written: the
// checkpoint's own assignment — not the assignment in effect now — names
// the worker whose file holds each bin, because bins may have migrated
// since. Crash-leave restore uses it to rebuild a dead member's bins on
// their new owners without loading the whole checkpoint. Bins that were
// owned but empty at the checkpoint are absent from the result (recovery
// recreates them lazily), exactly as with LoadRestore.
func LoadCheckpointBins(dir, op string, epoch Time, peers int, bins []int, codec string) (*Restore, error) {
	// Any present manifest carries the checkpoint's assignment; worker 0
	// itself may have been dead at the epoch and written none.
	m0 := anyManifest(dir, op, epoch, peers)
	if m0 == nil {
		return nil, fmt.Errorf("megaphone: checkpoint at epoch %d for %q: no manifest present", epoch, op)
	}
	out := &Restore{Epoch: epoch, LogBins: m0.LogBins, Assignment: m0.Assignment, Bins: make(map[int][]byte)}
	wanted := make(map[int]bool, len(bins))
	byOwner := make(map[int][]int)
	for _, b := range bins {
		if b < 0 || b >= len(m0.Assignment) {
			return nil, fmt.Errorf("megaphone: restore bin %d out of range for checkpoint with %d bins", b, len(m0.Assignment))
		}
		wanted[b] = true
		owner := m0.Assignment[b]
		byOwner[owner] = append(byOwner[owner], b)
	}
	for w := range byOwner {
		r, err := LoadRestore(dir, op, epoch, peers, w, 1, codec)
		if err != nil {
			return nil, err
		}
		if !equalInts(r.Assignment, out.Assignment) {
			return nil, fmt.Errorf("megaphone: checkpoint manifests disagree on the bin assignment (worker %d)", w)
		}
		for b, p := range r.Bins {
			if wanted[b] {
				out.Bins[b] = p
			}
		}
	}
	return out, nil
}

func chunkErr(worker int, err error) error {
	return fmt.Errorf("megaphone: checkpoint data for worker %d: corrupt record: %w", worker, err)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CodecName resolves the name of a (possibly nil) Config.Transfer value, for
// recording in checkpoint manifests.
func CodecName(c Codec) string {
	if c == nil {
		return TransferBinary.Name()
	}
	return c.Name()
}
