package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"

	"repro/internal/diskfault"
	"repro/internal/grn"
)

func testFP() Fingerprint {
	return Fingerprint{
		Genes: 100, Samples: 300, Order: 3, Bins: 10,
		Permutations: 30, NullSamplePairs: 500, TileSize: 32,
		Alpha: 0.01, Seed: 7,
	}
}

func TestNewStateAndRemaining(t *testing.T) {
	s := NewState(testFP(), 5)
	if s.Remaining() != 5 {
		t.Fatalf("Remaining = %d, want 5", s.Remaining())
	}
	s.Done[1] = true
	s.Done[3] = true
	if s.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", s.Remaining())
	}
}

func TestValidate(t *testing.T) {
	s := NewState(testFP(), 4)
	if err := s.Validate(testFP(), 4); err != nil {
		t.Fatal(err)
	}
	other := testFP()
	other.Seed = 8
	if err := s.Validate(other, 4); err == nil {
		t.Fatal("fingerprint mismatch should fail")
	}
	// NullSamplePairs changes the pooled-null threshold, so a checkpoint
	// saved under one value must not resume under another.
	other = testFP()
	other.NullSamplePairs = 200
	if err := s.Validate(other, 4); err == nil {
		t.Fatal("NullSamplePairs mismatch should fail")
	}
	if err := s.Validate(testFP(), 5); err == nil {
		t.Fatal("tile count mismatch should fail")
	}
	s.EvalsPerTile = s.EvalsPerTile[:3]
	if err := s.Validate(testFP(), 4); err == nil {
		t.Fatal("evals length mismatch should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewState(testFP(), 3)
	s.Threshold = 0.125
	s.NullSize = 15000
	s.Done[0] = true
	s.EvalsPerTile[0] = 42
	s.Edges = []grn.Edge{{I: 1, J: 2, Weight: 0.75}, {I: 0, J: 2, Weight: 0.5}}
	s.Verdicts = []grn.Verdict{grn.Failed, grn.Untested}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Verdicts) != 2 || back.Verdicts[0] != grn.Failed || back.Verdicts[1] != grn.Untested {
		t.Fatalf("verdicts = %v", back.Verdicts)
	}
	if back.Threshold != 0.125 || back.NullSize != 15000 {
		t.Fatalf("threshold/null = %v/%d", back.Threshold, back.NullSize)
	}
	if !back.Done[0] || back.Done[1] || back.EvalsPerTile[0] != 42 {
		t.Fatalf("tiles = %v / %v", back.Done, back.EvalsPerTile)
	}
	if len(back.Edges) != 2 || back.Edges[0] != (grn.Edge{I: 1, J: 2, Weight: 0.75}) {
		t.Fatalf("edges = %v", back.Edges)
	}
	if err := back.Validate(testFP(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage should fail to load")
	}
}

func TestLoadInconsistent(t *testing.T) {
	s := NewState(testFP(), 3)
	s.EvalsPerTile = s.EvalsPerTile[:2]
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("inconsistent lengths should fail to load")
	}
	s = NewState(testFP(), 3)
	s.Edges = []grn.Edge{{I: 0, J: 1, Weight: 1}}
	s.Verdicts = []grn.Verdict{grn.Passed, grn.Passed}
	buf.Reset()
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("a verdict array longer than the edge list should fail to load")
	}
}

func TestFileRoundTripAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Missing file is a fresh run.
	got, err := LoadFile(path)
	if err != nil || got != nil {
		t.Fatalf("missing file: %v, %v", got, err)
	}

	s := NewState(testFP(), 2)
	s.Done[1] = true
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || !back.Done[1] {
		t.Fatalf("reloaded state = %+v", back)
	}

	// Atomic write: no temp litter left behind (first save has nothing
	// to rotate, so the checkpoint itself is the only entry).
	assertEntries(t, dir, "run.ckpt")

	// Overwrite with progress keeps the file loadable and rotates the
	// old snapshot to the last-good slot.
	s.Done[0] = true
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err = LoadFile(path)
	if err != nil || back.Remaining() != 0 {
		t.Fatalf("after overwrite: %+v, %v", back, err)
	}
	assertEntries(t, dir, "run.ckpt", "run.ckpt.prev")

	// The rotated copy is the previous snapshot.
	prev, err := LoadFileFS(nil, PrevPath(path))
	if err != nil || prev == nil || prev.Remaining() != 1 {
		t.Fatalf("rotated snapshot: %+v, %v", prev, err)
	}

	// Remove clears both copies.
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	assertEntries(t, dir)
	if err := Remove(path); err != nil {
		t.Fatalf("Remove on missing files: %v", err)
	}
}

// assertEntries checks dir holds exactly the named files.
func assertEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("directory entries = %v, want %v", names, want)
	}
}

func TestSaveFileBadDir(t *testing.T) {
	if err := SaveFile("/nonexistent-dir-xyz/run.ckpt", NewState(testFP(), 1)); err == nil {
		t.Fatal("unwritable directory should error")
	}
}

func TestFrameFormat(t *testing.T) {
	s := NewState(testFP(), 2)
	frame, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame[:4]) != "TNGC" {
		t.Fatalf("magic = %q", frame[:4])
	}
	back, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(testFP(), 2); err != nil {
		t.Fatal(err)
	}
	// Any single flipped bit in the frame must fail decode.
	for _, off := range []int{0, 5, 10, 17, headerLen, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, diskfault.ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", off, err)
		}
	}
	// Truncations at every boundary fail, never panic.
	for n := 0; n < len(frame); n++ {
		if _, err := Decode(frame[:n]); !errors.Is(err, diskfault.ErrCorrupt) {
			t.Fatalf("truncate to %d: got %v, want ErrCorrupt", n, err)
		}
	}
}

// TestFrameVersion: a state with verdicts is framed as v3, so a
// reader that predates verdicts rejects it instead of taking every
// stored survivor for a passing edge; a state without them stays v2.
// Both decode, and an unknown version is corruption.
func TestFrameVersion(t *testing.T) {
	plain := NewState(testFP(), 2)
	plain.Edges = []grn.Edge{{I: 0, J: 1, Weight: 0.5}}
	withVerdicts := NewState(testFP(), 2)
	withVerdicts.Edges = []grn.Edge{{I: 0, J: 1, Weight: 0.5}}
	withVerdicts.Verdicts = []grn.Verdict{grn.Failed}
	for _, tc := range []struct {
		s    *State
		want uint16
	}{{plain, 2}, {withVerdicts, 3}} {
		frame, err := Encode(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(frame[4:]); v != tc.want {
			t.Fatalf("version %d, want %d", v, tc.want)
		}
		back, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Verdicts) != len(tc.s.Verdicts) {
			t.Fatalf("v%d: verdicts %v, want %v", tc.want, back.Verdicts, tc.s.Verdicts)
		}
		binary.LittleEndian.PutUint16(frame[4:], 4)
		if _, err := Decode(frame); !errors.Is(err, diskfault.ErrCorrupt) {
			t.Fatalf("version 4: got %v, want ErrCorrupt", err)
		}
	}
}

func TestLoadLegacyV1(t *testing.T) {
	// A pre-v2 checkpoint is a bare gob stream with no frame; it must
	// stay readable.
	s := NewState(testFP(), 3)
	s.Done[2] = true
	s.Threshold = 0.5
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || !back.Done[2] || back.Threshold != 0.5 {
		t.Fatalf("legacy state = %+v", back)
	}
}

func TestLoadFileCorruptFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := NewState(testFP(), 2)
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	s.Done[0] = true
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}

	// Corrupt the primary: load silently falls back to the rotation.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if back == nil || back.Remaining() != 2 {
		t.Fatalf("fallback state = %+v, want the pre-rotation snapshot", back)
	}

	// Corrupt the rotation too: now a typed CorruptError.
	if err := os.WriteFile(PrevPath(path), []byte("also garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	if !errors.Is(err, diskfault.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt in chain", err)
	}

	// Missing primary with a valid rotation still resumes.
	valid, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(PrevPath(path), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	back, err = LoadFile(path)
	if err != nil || back == nil || back.Remaining() != 1 {
		t.Fatalf("prev-only load: %+v, %v", back, err)
	}
}

// TestSaveFileFaultFreshOrValid crash-stops SaveFileFS at every write,
// sync, and rename boundary in turn and checks the published state is
// always fresh-or-valid: either copy loads, or the load is a clean
// fresh start — never a torn file accepted as truth.
func TestSaveFileFaultFreshOrValid(t *testing.T) {
	prior := NewState(testFP(), 2)
	next := NewState(testFP(), 2)
	next.Done[0] = true

	for _, torn := range []int{1, 2, 3} { // the save issues few writes; over-count just never fires
		for _, tornBytes := range []int{0, 1, 7} {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			if err := SaveFile(path, prior); err != nil {
				t.Fatal(err)
			}
			plan := &diskfault.Plan{Torn: &diskfault.TornSpec{K: int64(torn), Bytes: tornBytes}}
			err := SaveFileFS(plan.FS(nil), path, next)
			if plan.Crashed() {
				if err == nil {
					t.Fatalf("torn=%d: crash-stopped save reported success", torn)
				}
				if !errors.Is(err, diskfault.ErrInjected) {
					t.Fatalf("torn=%d: got %v, want injected error", torn, err)
				}
			} else if err != nil {
				t.Fatalf("torn=%d bytes=%d: %v", torn, tornBytes, err)
			}
			back, lerr := LoadFile(path)
			if lerr != nil {
				t.Fatalf("torn=%d bytes=%d: post-crash load: %v", torn, tornBytes, lerr)
			}
			if back == nil {
				t.Fatalf("torn=%d bytes=%d: prior snapshot lost", torn, tornBytes)
			}
		}
	}

	// Same sweep against rename faults: the prior snapshot must survive.
	for k := int64(1); k <= 2; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ckpt")
		if err := SaveFile(path, prior); err != nil {
			t.Fatal(err)
		}
		plan := &diskfault.Plan{Fail: &diskfault.FailSpec{Op: diskfault.OpRename, K: k}}
		if err := SaveFileFS(plan.FS(nil), path, next); err == nil {
			t.Fatalf("rename fault %d: save should fail", k)
		}
		back, err := LoadFile(path)
		if err != nil || back == nil {
			t.Fatalf("rename fault %d: post-fault load: %+v, %v", k, back, err)
		}
	}
}

func TestSaveFileENOSPCLeavesNoTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	plan := &diskfault.Plan{Fail: &diskfault.FailSpec{Op: diskfault.OpWrite, K: 1, Err: syscall.ENOSPC}}
	err := SaveFileFS(plan.FS(nil), path, NewState(testFP(), 2))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	// Nothing published, temp file cleaned up.
	assertEntries(t, dir)
	if back, err := LoadFile(path); err != nil || back != nil {
		t.Fatalf("after ENOSPC: %+v, %v", back, err)
	}
}
