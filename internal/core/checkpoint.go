package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
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
// per-bin digests) to CheckpointConfig.Dir. A restarting process finds
// the newest epoch whose every *live* worker's manifest is present (dead
// slots own no bins and write nothing) and puts a RestoreMove for each bin
// its workers owned there on the control stream, one epoch before T: each
// F rebuilds its bins from disk and ships them to its own S through the
// same install path a migration uses, and input resumes at T.

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

// reportError logs a failed checkpoint write. Write failures are non-fatal
// by design: the worker's manifest is simply never committed, which
// invalidates the epoch for recovery (the previous complete epoch remains
// usable) while the run itself keeps streaming — a full disk must not turn
// into the process death checkpoints exist to survive.
func (c *CheckpointConfig) reportError(epoch Time, worker int, err error) {
	fmt.Fprintf(os.Stderr, "megaphone: checkpoint at epoch %d on worker %d failed (epoch not committed): %v\n", epoch, worker, err)
}

// Restore is what LoadCheckpointBins reads from one operator's checkpoint:
// the bin→worker assignment in effect at the checkpoint epoch and the
// serialized payloads of the bins asked for.
type Restore struct {
	// LogBins is the log2 of the checkpointed operator's bin count.
	LogBins int
	// Assignment maps every bin to its owning worker at the checkpoint.
	Assignment []int
	// Bins maps the requested bins to their codec payloads; a bin owned
	// but empty at the checkpoint is absent.
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
// digest of its payload.
type BinManifest struct {
	Bin    int    `json:"bin"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"`
}

// checkpoint file layout under CheckpointConfig.Dir:
//
//	<dir>/<op>/epoch-<E>/bins-w<idx>.dat      magic, then one record per bin
//	<dir>/<op>/epoch-<E>/manifest-w<idx>.json commit record, written last
//
// After the magic, the data file holds one record per bin: uvarint bin,
// uvarint len, payload bytes, 8-byte big-endian FNV-64a digest of the
// payload. (MPCK1 files could split a bin over several records; they are
// refused as bad magic.)
const (
	ckptMagic       = "MPCK2\n"
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

func payloadDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
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

// WriteBin appends one bin's codec payload to the data file as one record
// and notes its digest for the manifest.
func (w *CheckpointWriter) WriteBin(bin int, payload []byte) error {
	buf := w.scratch[:0]
	buf = binenc.AppendUvarint(buf, uint64(bin))
	buf = binenc.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	d := payloadDigest(payload)
	buf = binary.BigEndian.AppendUint64(buf, d)
	w.scratch = buf
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("megaphone: writing checkpoint record: %w", err)
	}
	w.bytes += int64(len(payload))
	w.bins = append(w.bins, BinManifest{Bin: bin, Bytes: int64(len(payload)), Digest: strconv.FormatUint(d, 16)})
	return nil
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
	// complete when every op has every live worker's manifest for it.
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
			if _, err := epochManifest(dir, op, ep, peers); err != nil {
				complete = false
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
		if m, err := readManifest(dir, op, epoch, w); err == nil {
			return m
		}
	}
	return nil
}

// readManifest reads and parses one worker's manifest.
func readManifest(dir, op string, epoch Time, worker int) (*Manifest, error) {
	data, err := os.ReadFile(ckptManifestPath(dir, op, epoch, worker))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// epochManifest returns a manifest of one operator's checkpoint epoch once
// the epoch is complete: some manifest is readable, it was written by an
// execution of peers workers, and every worker it records as live committed
// its own (a slot dead at the epoch owns no bins and wrote none). The error
// names what is missing.
func epochManifest(dir, op string, epoch Time, peers int) (*Manifest, error) {
	m := anyManifest(dir, op, epoch, peers)
	if m == nil {
		return nil, fmt.Errorf("megaphone: checkpoint at epoch %d for %q: no manifest present", epoch, op)
	}
	if m.Peers != peers {
		return nil, fmt.Errorf("megaphone: checkpoint was taken with %d workers, recovering with %d: worker counts must match", m.Peers, peers)
	}
	for _, w := range m.liveSet(peers) {
		if _, err := os.Stat(ckptManifestPath(dir, op, epoch, w)); err != nil {
			return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d missing but the epoch records it live (incomplete checkpoint)", w)
		}
	}
	return m, nil
}

// LoadCheckpointBins is the one checkpoint loader. It reads the payloads of
// the given bins from one operator's checkpoint at epoch, wherever they were
// written: the checkpoint's own assignment — not the assignment in effect
// now — names the worker whose file holds each bin, because bins may have
// migrated since. It verifies that the epoch is complete, that every
// manifest it reads agrees on the execution (peer count, codec, bin count,
// assignment), and every digest of each data file it opens; codec names the
// codec the caller decodes with. Bins that were owned but empty at the
// checkpoint are absent from the result, and no bins at all reads only the
// assignment.
func LoadCheckpointBins(dir, op string, epoch Time, peers int, bins []int, codec string) (*Restore, error) {
	m0, err := epochManifest(dir, op, epoch, peers)
	if err != nil {
		return nil, err
	}
	if m0.Codec != codec {
		return nil, fmt.Errorf("megaphone: checkpoint was encoded with codec %q, recovering with %q: the payload format changed between the two builds", m0.Codec, codec)
	}
	if m0.LogBins < 0 || m0.LogBins > MaxLogBins || len(m0.Assignment) != 1<<uint(m0.LogBins) {
		return nil, fmt.Errorf("megaphone: checkpoint manifest assignment has %d bins, log_bins says 2^%d", len(m0.Assignment), m0.LogBins)
	}
	for b, owner := range m0.Assignment {
		if owner < 0 || owner >= peers {
			return nil, fmt.Errorf("megaphone: checkpoint assigns bin %d to worker %d, outside the execution's %d workers", b, owner, peers)
		}
	}
	out := &Restore{LogBins: m0.LogBins, Assignment: m0.Assignment, Bins: make(map[int][]byte, len(bins))}
	wanted := make([]bool, len(m0.Assignment))
	read := make([]bool, peers) // the workers whose files hold a wanted bin
	for _, b := range bins {
		if b < 0 || b >= len(wanted) {
			return nil, fmt.Errorf("megaphone: restore bin %d out of range for checkpoint with %d bins", b, len(wanted))
		}
		wanted[b], read[m0.Assignment[b]] = true, true
	}
	for w := range read {
		if !read[w] {
			continue
		}
		m := m0
		if w != m0.Worker {
			if m, err = readManifest(dir, op, epoch, w); err != nil {
				return nil, fmt.Errorf("megaphone: checkpoint manifest for worker %d: %w", w, err)
			}
		}
		switch {
		case m.Op != op || m.Epoch != uint64(epoch) || m.Worker != w:
			return nil, fmt.Errorf("megaphone: checkpoint manifest identity mismatch (op %q epoch %d worker %d)", m.Op, m.Epoch, m.Worker)
		case m.Peers != peers || m.Codec != codec || m.LogBins != m0.LogBins || !slices.Equal(m.Assignment, m0.Assignment):
			return nil, fmt.Errorf("megaphone: checkpoint manifests disagree on the execution or the bin assignment (worker %d)", w)
		}
		if err := loadBins(dir, op, epoch, w, m, wanted, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadBins reads one worker's data file, verifying each bin's digest against
// both the in-file digest and the manifest, and checks each payload's format
// tag: a bin in the retired gob format, under the same codec name, is
// refused by name. The payloads of wanted bins go into r.
func loadBins(dir, op string, epoch Time, worker int, m *Manifest, wanted []bool, r *Restore) error {
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

	seen := make(map[int]bool, len(want))
	for len(data) > 0 {
		var v uint64
		if v, data, err = binenc.Uvarint(data); err != nil {
			return recordErr(worker, err)
		}
		bin := int(v)
		if v, data, err = binenc.Uvarint(data); err != nil {
			return recordErr(worker, err)
		}
		if v > uint64(len(data)) || uint64(len(data))-v < 8 {
			return recordErr(worker, io.ErrUnexpectedEOF)
		}
		payload := data[:v]
		fileDigest := binary.BigEndian.Uint64(data[v : v+8])
		data = data[v+8:]

		bm := want[bin]
		if bm == nil {
			return fmt.Errorf("megaphone: checkpoint data for worker %d holds bin %d absent from its manifest", worker, bin)
		}
		if seen[bin] {
			return fmt.Errorf("megaphone: checkpoint data for worker %d holds bin %d twice", worker, bin)
		}
		seen[bin] = true
		d := payloadDigest(payload)
		if d != fileDigest || strconv.FormatUint(d, 16) != bm.Digest {
			return fmt.Errorf("megaphone: checkpoint bin %d digest mismatch (corrupt checkpoint)", bin)
		}
		if len(payload) == 0 || payload[0] != binFormatBinary {
			return fmt.Errorf("megaphone: checkpoint of operator %q: bin %d is not in the binary format; the gob format of earlier builds no longer loads", op, bin)
		}
		if wanted[bin] {
			// Detach the payload from the file buffer.
			r.Bins[bin] = append([]byte(nil), payload...)
		}
	}
	for bin := range want {
		if !seen[bin] {
			return fmt.Errorf("megaphone: checkpoint bin %d truncated: its record is missing", bin)
		}
	}
	return nil
}

func recordErr(worker int, err error) error {
	return fmt.Errorf("megaphone: checkpoint data for worker %d: corrupt record: %w", worker, err)
}
