package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/diskfault"
	"repro/internal/grn"
)

// FuzzCheckpointLoad feeds arbitrary bytes — seeded with valid v2
// frames, legacy v1 gobs, and systematic truncations/bit-flips of both
// — through Decode. The invariant: never panic, and never hand back a
// state that fails its own consistency checks. Any mutation of a valid
// frame must surface as a typed ErrCorrupt, not as silently different
// scan state.
func FuzzCheckpointLoad(f *testing.F) {
	s := NewState(testFP(), 4)
	s.Done[0], s.Done[2] = true, true
	s.Threshold = 0.25
	s.NullSize = 9000
	s.Edges = []grn.Edge{{I: 0, J: 3, Weight: 0.5}, {I: 1, J: 2, Weight: 0.75}}
	s.EvalsPerTile[0] = 17
	frame, err := Encode(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)-3])
	f.Add(frame[:headerLen])
	f.Add(frame[:3])
	legacy := append([]byte(nil), frame[headerLen:]...) // bare gob payload = legacy v1
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	flipped := append([]byte(nil), frame...)
	flipped[headerLen+5] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("TNGC"))
	f.Add([]byte("complete garbage that is neither frame nor gob"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned both state and error")
			}
			if !errors.Is(err, diskfault.ErrCorrupt) {
				t.Fatalf("Decode error is not typed corruption: %v", err)
			}
			return
		}
		// Whatever decoded must be internally consistent: Load's callers
		// index these slices in lockstep.
		n := len(got.Done)
		if len(got.EvalsPerTile) != n || len(got.PairEvalsPerTile) != n {
			t.Fatalf("inconsistent state escaped Decode: %d/%d/%d",
				n, len(got.EvalsPerTile), len(got.PairEvalsPerTile))
		}
		// A framed input that decodes must be byte-identical to the known
		// frame modulo its own payload: any accepted frame re-encodes
		// to a frame whose payload passes the same CRC. (Re-encode and
		// re-decode as a cheap involution check.)
		frame2, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		if _, err := Decode(frame2); err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v", err)
		}
	})
}

// FuzzCheckpointLoadReader mirrors FuzzCheckpointLoad through the
// io.Reader entry point, which some callers still use.
func FuzzCheckpointLoadReader(f *testing.F) {
	f.Add([]byte("TNGC\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("Load returned neither state nor error")
		}
	})
}
