// Package checkpoint persists and restores the pair-scan state of a
// network-inference run. A whole-genome scan is hours of work at
// cluster or coprocessor scale; the original TINGe deployments
// checkpoint between work blocks so a preempted job resumes instead of
// recomputing 10¹¹ MI kernels. The state is everything phase 4 has
// produced: the phase-3 threshold, the completed-tile bitmap, the
// threshold survivors found so far with each one's permutation-test
// verdict, and per-tile evaluation counts.
//
// A Fingerprint of the run parameters guards against resuming with a
// different dataset or configuration, which would silently corrupt the
// result.
//
// On disk a checkpoint is a frame: magic "TNGC", format version,
// payload length, and a CRC32C over the gob payload, so a torn or
// bit-flipped file is detected on load instead of silently resuming
// wrong state. The version is 3 when the state carries per-survivor
// verdicts and 2 otherwise; a reader that predates verdicts rejects a
// v3 file as corrupt and starts fresh, where decoding it would skip
// the verdicts and take every stored survivor for a passing edge. Files are published atomically — the frame is written
// to a temp file in one write, fsynced, renamed over the target, and
// the parent directory fsynced — and the previous snapshot is rotated
// to a ".prev" last-good copy that Load falls back to when the primary
// is corrupt. Only when both copies fail does LoadFile return a
// *CorruptError; engines treat that as "start fresh and count it",
// never as a fatal run error. v2 frames and legacy v1 files (bare
// gob, no frame) remain readable.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/diskfault"
	"repro/internal/grn"
)

// Fingerprint identifies the run a checkpoint belongs to. Every field
// that changes the scan's output is included. Checkpoints written while
// scans had a pair prescreening pass also carry its prescreen flag,
// which never changed the network; gob skips fields the type no longer
// has, so they still load, validate, and resume.
type Fingerprint struct {
	Genes        int
	Samples      int
	Order        int
	Bins         int
	Permutations int
	// NullSamplePairs sizes the pooled null behind the saved Threshold;
	// resuming under a different value would keep a threshold the
	// requested config never produces.
	NullSamplePairs int
	TileSize        int
	Alpha           float64
	Seed            uint64
	// Precision is 0 in every checkpoint written now, and in those of
	// binaries that computed MI only in float64. Binaries that also had
	// a float32 compute path wrote 1 for a float32 run; its tiles hold
	// MI values that differ from the float64 ones by accumulation
	// roundoff, so such a checkpoint must keep failing Validate with a
	// fingerprint mismatch rather than blend two estimators in one
	// scan. That is why the field stays: without it gob would skip the
	// saved 1, and a float64 run would resume on float32 tiles.
	Precision uint8
	// Bootstraps, SubsampleFrac, and EnsembleSeed identify an ensemble
	// run (all zero for single-network scans, which is what old
	// checkpoints decode to). They fix the bootstrap count and the
	// per-bootstrap sample-index draws, so an ensemble checkpoint never
	// resumes under a different subsampling plan. The support cutoff is
	// deliberately excluded: it only thresholds the already-aggregated
	// support counts at the end, so resuming with a different cutoff is
	// sound (and useful — re-derive a consensus without rescanning).
	Bootstraps    int
	SubsampleFrac float64
	EnsembleSeed  uint64
}

// State is the resumable scan state.
type State struct {
	Fingerprint Fingerprint
	Threshold   float64
	NullSize    int
	// Done[i] marks pair tile i complete.
	Done []bool
	// Edges holds the threshold survivors of completed tiles, weighted
	// by their observed MI.
	Edges []grn.Edge
	// Verdicts[x] is the permutation-test verdict of Edges[x] (Untested
	// until the test pass decides it). Files written before scans split
	// observation from testing stored only edges that had passed their
	// test and carry no verdicts: nil means every stored edge passed.
	// Fleet chunk ledgers, which store merged passing edges, leave it
	// nil too.
	Verdicts []grn.Verdict
	// EvalsPerTile records combined MI evaluation counts (exact pair
	// kernels plus permutation evaluations) of completed tiles — the
	// quantity the Phi time model replays. A resumed run reports only
	// its own session's counts, so nothing else reads it; ensemble
	// ledgers and fleet chunk ledgers leave it zero.
	EvalsPerTile []int64
	// PairEvalsPerTile is no longer written; it stays so checkpoints
	// that carry it still load. Files written before it existed decode
	// nil and are normalized to zeros by Load. (Files from the
	// prescreening era also carry a per-tile screened-pair array, which
	// gob skips.)
	PairEvalsPerTile []int64
	// EnsembleEdges snapshots the bootstrap support aggregate of an
	// ensemble run. For ensemble checkpoints the unit of work is a whole
	// bootstrap, not a tile: Done is the per-bootstrap bitmap (length
	// Fingerprint.Bootstraps), and this table carries the (support,
	// weight-sum) fold of every completed bootstrap in ascending order.
	// nil for single-network scans.
	EnsembleEdges []grn.SupportEdge
	// EnsembleThresholds[b] is bootstrap b's pooled-null I_alpha (0
	// until the bootstrap completes). nil for single-network scans.
	EnsembleThresholds []float64
}

// NewState initializes an empty state for nTiles tiles.
func NewState(fp Fingerprint, nTiles int) *State {
	return &State{
		Fingerprint:      fp,
		Done:             make([]bool, nTiles),
		EvalsPerTile:     make([]int64, nTiles),
		PairEvalsPerTile: make([]int64, nTiles),
	}
}

// Remaining returns the number of incomplete tiles.
func (s *State) Remaining() int {
	n := 0
	for _, d := range s.Done {
		if !d {
			n++
		}
	}
	return n
}

// PendingTiles returns the indices of incomplete tiles in ascending
// order — the work list a resuming or recovering engine redistributes
// over its surviving workers.
func (s *State) PendingTiles() []int {
	out := make([]int, 0, s.Remaining())
	for i, d := range s.Done {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// Validate reports whether the state belongs to a run with the given
// fingerprint and tile count.
func (s *State) Validate(fp Fingerprint, nTiles int) error {
	if s.Fingerprint != fp {
		return fmt.Errorf("checkpoint: fingerprint mismatch: saved %+v, run %+v", s.Fingerprint, fp)
	}
	if len(s.Done) != nTiles {
		return fmt.Errorf("checkpoint: tile count mismatch: saved %d, run %d", len(s.Done), nTiles)
	}
	if len(s.EvalsPerTile) != nTiles {
		return fmt.Errorf("checkpoint: evals length mismatch: saved %d, run %d", len(s.EvalsPerTile), nTiles)
	}
	if len(s.PairEvalsPerTile) != nTiles {
		return fmt.Errorf("checkpoint: split-counter length mismatch: saved %d, run %d",
			len(s.PairEvalsPerTile), nTiles)
	}
	if fp.Bootstraps > 0 && len(s.EnsembleThresholds) != nTiles {
		return fmt.Errorf("checkpoint: ensemble threshold length mismatch: saved %d, run %d",
			len(s.EnsembleThresholds), nTiles)
	}
	return nil
}

// Frame layout: magic, format version, reserved padding, payload
// length, CRC32C over the payload, then the gob payload itself.
// verdictVersion frames a state with Verdicts, fileVersion any other.
const (
	fileMagic      = "TNGC"
	fileVersion    = 2
	verdictVersion = 3
	headerLen      = 4 + 2 + 2 + 8 + 4
	// maxPayload bounds the declared payload length so a corrupt header
	// cannot drive a huge allocation. Real states are a few MB at most.
	maxPayload = 1 << 32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports that a checkpoint file (and its ".prev"
// fallback, when loading through LoadFile) failed integrity or decode
// checks. It wraps diskfault.ErrCorrupt, so
// errors.Is(err, diskfault.ErrCorrupt) identifies corruption
// regardless of which layer surfaced it.
type CorruptError struct {
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: corrupt checkpoint %s: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(path string, err error) error {
	if !errors.Is(err, diskfault.ErrCorrupt) {
		err = fmt.Errorf("%w: %w", diskfault.ErrCorrupt, err)
	}
	return &CorruptError{Path: path, Err: err}
}

// PrevPath returns the last-good rotation path beside path.
func PrevPath(path string) string { return path + ".prev" }

// Encode serializes the state as a frame: v3 when it carries
// verdicts, v2 otherwise.
func Encode(s *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	frame := make([]byte, headerLen, headerLen+payload.Len())
	copy(frame, fileMagic)
	version := uint16(fileVersion)
	if s.Verdicts != nil {
		version = verdictVersion
	}
	binary.LittleEndian.PutUint16(frame[4:], version)
	binary.LittleEndian.PutUint64(frame[8:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(frame[16:], crc32.Checksum(payload.Bytes(), crcTable))
	return append(frame, payload.Bytes()...), nil
}

// Decode parses a checkpoint from raw file bytes: a v3 or v2 frame,
// or a legacy v1 bare-gob file. Every failure wraps diskfault.ErrCorrupt.
func Decode(data []byte) (*State, error) {
	payload := data
	if len(data) >= len(fileMagic) && string(data[:len(fileMagic)]) == string(fileMagic) {
		if len(data) < headerLen {
			return nil, fmt.Errorf("%w: truncated header: %d bytes", diskfault.ErrCorrupt, len(data))
		}
		if v := binary.LittleEndian.Uint16(data[4:]); v != fileVersion && v != verdictVersion {
			return nil, fmt.Errorf("%w: unsupported format version %d", diskfault.ErrCorrupt, v)
		}
		n := binary.LittleEndian.Uint64(data[8:])
		if n > maxPayload || int(n) != len(data)-headerLen {
			return nil, fmt.Errorf("%w: payload length %d does not match file size %d",
				diskfault.ErrCorrupt, n, len(data))
		}
		payload = data[headerLen:]
		if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[16:]); got != want {
			return nil, fmt.Errorf("%w: CRC32C mismatch: computed %08x, stored %08x",
				diskfault.ErrCorrupt, got, want)
		}
	}
	var s State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", diskfault.ErrCorrupt, err)
	}
	if len(s.Done) != len(s.EvalsPerTile) {
		return nil, fmt.Errorf("%w: inconsistent state: %d done flags, %d eval counts",
			diskfault.ErrCorrupt, len(s.Done), len(s.EvalsPerTile))
	}
	// Files written before the pair/permutation counter split carry no
	// per-tile split arrays; normalize them to zeros so resumed runs see
	// consistent lengths (the combined EvalsPerTile stays authoritative).
	if s.PairEvalsPerTile == nil {
		s.PairEvalsPerTile = make([]int64, len(s.Done))
	}
	if len(s.PairEvalsPerTile) != len(s.Done) {
		return nil, fmt.Errorf("%w: inconsistent state: %d done flags, %d split counts",
			diskfault.ErrCorrupt, len(s.Done), len(s.PairEvalsPerTile))
	}
	if s.Verdicts != nil && len(s.Verdicts) != len(s.Edges) {
		return nil, fmt.Errorf("%w: inconsistent state: %d edges, %d verdicts",
			diskfault.ErrCorrupt, len(s.Edges), len(s.Verdicts))
	}
	// Ensemble snapshots carry one threshold slot per bootstrap; a
	// mismatched length means the file does not describe its own Done
	// bitmap.
	if s.EnsembleThresholds != nil && len(s.EnsembleThresholds) != len(s.Done) {
		return nil, fmt.Errorf("%w: inconsistent state: %d done flags, %d ensemble thresholds",
			diskfault.ErrCorrupt, len(s.Done), len(s.EnsembleThresholds))
	}
	return &s, nil
}

// Save writes the state to w as a frame (see Encode).
func Save(w io.Writer, s *State) error {
	frame, err := Encode(s)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// Load reads a state from r (v3 or v2 frame, or legacy v1 bare gob).
func Load(r io.Reader) (*State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return s, nil
}

// SaveFile writes the state atomically and durably to path. See
// SaveFileFS.
func SaveFile(path string, s *State) error {
	return SaveFileFS(diskfault.OS, path, s)
}

// SaveFileFS writes the state to path through fsys (nil: the real
// filesystem): the frame lands in a temp file with a single write,
// is fsynced and renamed over path, and the parent directory is
// fsynced so the rename survives a power cut. An existing snapshot at
// path is first rotated to PrevPath(path); a crash at any single
// boundary therefore leaves either the new file, the previous
// last-good file, or nothing published — never a torn visible
// checkpoint.
func SaveFileFS(fsys diskfault.FS, path string, s *State) (err error) {
	fsys = diskfault.OrOS(fsys)
	frame, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	published := false
	defer func() {
		if !published {
			fsys.Remove(tmpName)
		}
	}()
	if _, werr := tmp.Write(frame); werr != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write: %w", werr)
	}
	if serr := tmp.Sync(); serr != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", serr)
	}
	if cerr := tmp.Close(); cerr != nil {
		return fmt.Errorf("checkpoint: %w", cerr)
	}
	// Rotate the current snapshot to the last-good slot before
	// publishing the new one. A crash between the two renames leaves
	// only .prev — still a valid resume point.
	if rerr := fsys.Rename(path, PrevPath(path)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: rotate: %w", rerr)
	}
	if rerr := fsys.Rename(tmpName, path); rerr != nil {
		return fmt.Errorf("checkpoint: publish: %w", rerr)
	}
	published = true
	if derr := fsys.SyncDir(dir); derr != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", derr)
	}
	return nil
}

// LoadFile reads a state from path, falling back to the ".prev"
// rotation. See LoadFileFS.
func LoadFile(path string) (*State, error) {
	return LoadFileFS(diskfault.OS, path)
}

// LoadFileFS reads a state from path through fsys (nil: the real
// filesystem). A corrupt or unreadable primary falls back to
// PrevPath(path) — the rotation SaveFileFS maintains. Both files
// missing returns (nil, nil): a fresh run, not an error. A *CorruptError
// is returned only when a copy exists but none passes its integrity
// checks.
func LoadFileFS(fsys diskfault.FS, path string) (*State, error) {
	fsys = diskfault.OrOS(fsys)
	s, primaryErr := loadOne(fsys, path)
	if primaryErr == nil {
		return s, nil
	}
	s, prevErr := loadOne(fsys, PrevPath(path))
	if prevErr == nil {
		return s, nil
	}
	if errors.Is(primaryErr, os.ErrNotExist) {
		if errors.Is(prevErr, os.ErrNotExist) {
			return nil, nil
		}
		return nil, corrupt(PrevPath(path), prevErr)
	}
	if errors.Is(prevErr, os.ErrNotExist) {
		return nil, corrupt(path, primaryErr)
	}
	return nil, corrupt(path, fmt.Errorf("%w (fallback %s: %v)", primaryErr, PrevPath(path), prevErr))
}

// loadOne reads and decodes a single file. Missing files surface as
// os.ErrNotExist for the caller's fallback logic.
func loadOne(fsys diskfault.FS, path string) (*State, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return Decode(data)
}

// Remove deletes the checkpoint at path and its ".prev" rotation.
// Missing files are not an error. See RemoveFS.
func Remove(path string) error {
	return RemoveFS(diskfault.OS, path)
}

// RemoveFS deletes the checkpoint at path and its ".prev" rotation
// through fsys (nil: the real filesystem), returning the first real
// error; missing files are ignored.
func RemoveFS(fsys diskfault.FS, path string) error {
	fsys = diskfault.OrOS(fsys)
	var first error
	for _, p := range []string{path, PrevPath(path)} {
		if err := fsys.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}
