package core

import (
	"fmt"
	"sync"

	"megaphone/internal/binenc"
)

// This file is the telemetry half of the cluster control plane: a process
// periodically publishes the *increments* of its own workers' LoadMeter rows
// as a LoadDelta, and every process folds the deltas it receives into a
// ClusterLoadView — the cluster-wide worker×bin load matrix the elected
// controller plans against. Deltas double as liveness heartbeats: an empty
// delta still announces "process P reached sample S".

// LoadWireVersion is the load-delta wire format version. A delta encoded by
// any other version is rejected on decode, so mixed builds in one cluster
// fail loudly instead of merging misread counters.
const LoadWireVersion = 1

// Decode-time sanity bounds. A corrupt or adversarial frame must not size a
// huge allocation before validation catches it (the transport already bounds
// the frame, but the codec stands alone for fuzzing).
const (
	maxDeltaBins  = 1 << 20
	maxDeltaCells = 1 << 22 // rows × bins; bounds total decode allocation
)

// LoadDelta is one process's load-telemetry heartbeat: the per-bin record and
// service-time increments of its local workers' meter rows since its previous
// delta, stamped with the origin process and its monotone sample index.
type LoadDelta struct {
	Proc        int    // origin process index
	Seq         uint64 // origin's sample counter (1, 2, ...); monotone per origin
	FirstWorker int    // global index of Rows[0]'s worker
	Bins        int    // bin count (must match the receiving meter)
	// Rows holds one row per local worker of the origin process; Recs and
	// Nanos are indexed by bin and carry increments, not cumulative values.
	Rows []LoadDeltaRow
}

// LoadDeltaRow is one worker's per-bin increments.
type LoadDeltaRow struct {
	Recs  []uint64
	Nanos []uint64
}

// AppendLoadDelta appends the wire encoding of d to buf and returns the
// extended slice. Cells are encoded sparsely (bin index + the two counters,
// non-zero cells only): a heartbeat with no traffic costs a few bytes, and a
// hot-spot delta costs proportional to the hot set, not the bin count.
func AppendLoadDelta(buf []byte, d *LoadDelta) []byte {
	buf = append(buf, LoadWireVersion)
	buf = binenc.AppendUvarint(buf, uint64(d.Proc))
	buf = binenc.AppendUvarint(buf, d.Seq)
	buf = binenc.AppendUvarint(buf, uint64(d.FirstWorker))
	buf = binenc.AppendUvarint(buf, uint64(d.Bins))
	buf = binenc.AppendUvarint(buf, uint64(len(d.Rows)))
	for _, row := range d.Rows {
		cells := 0
		for b := range row.Recs {
			if row.Recs[b] != 0 || row.Nanos[b] != 0 {
				cells++
			}
		}
		buf = binenc.AppendUvarint(buf, uint64(cells))
		for b := range row.Recs {
			if row.Recs[b] != 0 || row.Nanos[b] != 0 {
				buf = binenc.AppendUvarint(buf, uint64(b))
				buf = binenc.AppendUvarint(buf, row.Recs[b])
				buf = binenc.AppendUvarint(buf, row.Nanos[b])
			}
		}
	}
	return buf
}

// DecodeLoadDelta decodes one load delta into d (rows and cell slices are
// reused when large enough). It never panics on malformed input: torn,
// truncated, version-skewed or trailing-garbage payloads return an error.
func DecodeLoadDelta(data []byte, d *LoadDelta) error {
	if len(data) < 1 {
		return fmt.Errorf("core: load delta: %w", binenc.ErrShort)
	}
	if v := data[0]; v != LoadWireVersion {
		return fmt.Errorf("core: load delta version %d, this build speaks %d", v, LoadWireVersion)
	}
	data = data[1:]
	var proc, seq, first, bins, rows uint64
	var err error
	if proc, data, err = binenc.Uvarint(data); err != nil {
		return fmt.Errorf("core: load delta proc: %w", err)
	}
	if seq, data, err = binenc.Uvarint(data); err != nil {
		return fmt.Errorf("core: load delta seq: %w", err)
	}
	if first, data, err = binenc.Uvarint(data); err != nil {
		return fmt.Errorf("core: load delta first-worker: %w", err)
	}
	if bins, data, err = binenc.Uvarint(data); err != nil {
		return fmt.Errorf("core: load delta bins: %w", err)
	}
	if bins > maxDeltaBins {
		return fmt.Errorf("core: load delta declares %d bins (max %d)", bins, maxDeltaBins)
	}
	// Each encoded row carries at least its one-byte cell count.
	if rows, data, err = binenc.Count(data, 1); err != nil {
		return fmt.Errorf("core: load delta rows: %w", err)
	}
	if bins > 0 && rows > maxDeltaCells/bins {
		return fmt.Errorf("core: load delta declares %d×%d cells (max %d)", rows, bins, maxDeltaCells)
	}
	d.Proc = int(proc)
	d.Seq = seq
	d.FirstWorker = int(first)
	d.Bins = int(bins)
	if cap(d.Rows) < int(rows) {
		d.Rows = make([]LoadDeltaRow, rows)
	}
	d.Rows = d.Rows[:rows]
	for r := range d.Rows {
		row := &d.Rows[r]
		row.Recs = resize(row.Recs, int(bins))
		row.Nanos = resize(row.Nanos, int(bins))
		var cells uint64
		// Each encoded cell is at least 3 bytes (three uvarints).
		if cells, data, err = binenc.Count(data, 3); err != nil {
			return fmt.Errorf("core: load delta row %d cells: %w", r, err)
		}
		for c := uint64(0); c < cells; c++ {
			var bin, recs, nanos uint64
			if bin, data, err = binenc.Uvarint(data); err != nil {
				return fmt.Errorf("core: load delta row %d cell %d: %w", r, c, err)
			}
			if recs, data, err = binenc.Uvarint(data); err != nil {
				return fmt.Errorf("core: load delta row %d cell %d recs: %w", r, c, err)
			}
			if nanos, data, err = binenc.Uvarint(data); err != nil {
				return fmt.Errorf("core: load delta row %d cell %d nanos: %w", r, c, err)
			}
			if bin >= bins {
				return fmt.Errorf("core: load delta row %d cell %d names bin %d of %d", r, c, bin, bins)
			}
			row.Recs[bin] = recs
			row.Nanos[bin] = nanos
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("core: load delta: %d trailing bytes", len(data))
	}
	return nil
}

// ClusterLoadView merges a process's live local LoadMeter with the remote
// row deltas it receives into one cluster-wide cumulative load matrix. Local
// rows are always read from the meter at snapshot time (they are fresher
// than any delta could be); remote rows advance as deltas arrive on the
// control channel. The view satisfies the same Snapshot contract as the
// LoadMeter, so the AutoController's sampling loop runs unchanged over it.
type ClusterLoadView struct {
	meter       *LoadMeter
	firstLocal  int
	localRows   int
	mu          sync.Mutex
	recs, nanos []uint64 // row-major [worker*bins+bin]; remote rows only
}

// NewClusterLoadView returns a view over meter (sized for the whole cluster)
// whose rows [firstLocal, firstLocal+localRows) are this process's own.
func NewClusterLoadView(meter *LoadMeter, firstLocal, localRows int) *ClusterLoadView {
	if firstLocal < 0 || localRows <= 0 || firstLocal+localRows > meter.Workers() {
		panic(fmt.Sprintf("core: cluster view rows [%d,%d) out of range for %d workers",
			firstLocal, firstLocal+localRows, meter.Workers()))
	}
	n := meter.Workers() * meter.Bins()
	return &ClusterLoadView{
		meter:      meter,
		firstLocal: firstLocal,
		localRows:  localRows,
		recs:       make([]uint64, n),
		nanos:      make([]uint64, n),
	}
}

// Apply folds one remote delta into the view. Deltas from this process's own
// rows are ignored (local rows are read live), and a delta whose geometry
// disagrees with the meter is rejected — a process running a different
// configuration must not corrupt the matrix.
func (v *ClusterLoadView) Apply(d *LoadDelta) error {
	if d.Bins != v.meter.Bins() {
		return fmt.Errorf("core: load delta has %d bins, view has %d", d.Bins, v.meter.Bins())
	}
	if d.FirstWorker < 0 || d.FirstWorker+len(d.Rows) > v.meter.Workers() {
		return fmt.Errorf("core: load delta rows [%d,%d) out of range for %d workers",
			d.FirstWorker, d.FirstWorker+len(d.Rows), v.meter.Workers())
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for r, row := range d.Rows {
		w := d.FirstWorker + r
		if w >= v.firstLocal && w < v.firstLocal+v.localRows {
			continue // our own row; the meter is authoritative
		}
		base := w * d.Bins
		for b := 0; b < d.Bins; b++ {
			v.recs[base+b] += row.Recs[b]
			v.nanos[base+b] += row.Nanos[b]
		}
	}
	return nil
}

// Snapshot reads the merged cluster-wide view into a LoadSnapshot, exactly
// as LoadMeter.Snapshot does for one process: local rows live from the
// meter, remote rows from the accumulated deltas.
func (v *ClusterLoadView) Snapshot(into *LoadSnapshot) *LoadSnapshot {
	workers, bins := v.meter.Workers(), v.meter.Bins()
	if into == nil {
		into = &LoadSnapshot{}
	}
	into.Workers = workers
	into.Bins = bins
	into.BinRecs = resize(into.BinRecs, bins)
	into.BinNanos = resize(into.BinNanos, bins)
	into.WorkerRecs = resize(into.WorkerRecs, workers)
	into.WorkerNanos = resize(into.WorkerNanos, workers)
	v.mu.Lock()
	defer v.mu.Unlock()
	for w := 0; w < workers; w++ {
		var recs, nanos uint64
		if w >= v.firstLocal && w < v.firstLocal+v.localRows {
			row := v.meter.row(w)
			for b := range row {
				r := row[b].recs.Load()
				n := row[b].nanos.Load()
				into.BinRecs[b] += r
				into.BinNanos[b] += n
				recs += r
				nanos += n
			}
		} else {
			base := w * bins
			for b := 0; b < bins; b++ {
				r := v.recs[base+b]
				n := v.nanos[base+b]
				into.BinRecs[b] += r
				into.BinNanos[b] += n
				recs += r
				nanos += n
			}
		}
		into.WorkerRecs[w] = recs
		into.WorkerNanos[w] = nanos
	}
	return into
}
