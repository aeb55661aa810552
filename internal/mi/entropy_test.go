package mi

import (
	"math"
	"math/rand"
	"testing"
)

// entropyLoop is the float64 entropy pass as a plain loop, one
// math.Log2 per nonzero cell in cell order: the reference
// Workspace.jointEntropy is held to.
func entropyLoop(joint []float64, inv float64) float64 {
	var h float64
	for _, c := range joint {
		if c > 0 {
			p := c * inv
			h -= p * math.Log2(p)
		}
	}
	return h
}

// entropyWorkspace returns a float64 workspace of bins bins, without an
// estimator: the entropy pass reads only the joint and the cells.
func entropyWorkspace(bins int) *Workspace {
	return &Workspace{
		prec:  Float64,
		bins:  bins,
		joint: make([]float64, bins*bins),
		cells: make([]float64, entropyScratchLen(bins)),
	}
}

// fillJoint fills a joint with weighted counts over m samples: a share
// zeroRate/256 of zero cells, and the rest a mix of float32-rounded
// counts, exact powers of two, tiny cells down to 2^-149, and odd
// integers.
func fillJoint(rng *rand.Rand, joint []float64, m int, zeroRate uint8) {
	for x := range joint {
		if rng.Intn(256) < int(zeroRate) {
			joint[x] = 0
			continue
		}
		switch rng.Intn(8) {
		case 0:
			joint[x] = math.Ldexp(1, rng.Intn(12)-6)
		case 1:
			joint[x] = float64(math.Float32frombits(uint32(1 + rng.Intn(1<<12))))
		case 2:
			joint[x] = float64(2*rng.Intn(m/2+1) + 1)
		default:
			joint[x] = float64(float32(rng.Float64() * float64(m) / 4))
		}
	}
}

// FuzzEntropyPass holds the float64 entropy pass (jointEntropy) to the
// math.Log2 loop bit for bit on random joints of 3 to 30 bins with
// zero cells, exact powers of two, tiny cells and odd counts, so an
// odd number of nonzero cells is common.
func FuzzEntropyPass(f *testing.F) {
	f.Add(uint8(10), uint16(337), uint8(32), uint64(1))
	f.Add(uint8(3), uint16(4), uint8(0), uint64(2))
	f.Add(uint8(30), uint16(3137), uint8(200), uint64(3))
	f.Add(uint8(7), uint16(1), uint8(255), uint64(4))
	f.Fuzz(func(t *testing.T, bins uint8, m uint16, zeroRate uint8, seed uint64) {
		b := 3 + int(bins%28)
		samples := 1 + int(m)
		ws := entropyWorkspace(b)
		rng := rand.New(rand.NewSource(int64(seed)))
		fillJoint(rng, ws.joint, samples, zeroRate)
		inv := 1 / float64(samples)
		if got, want := ws.jointEntropy(inv), entropyLoop(ws.joint, inv); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d bins, m %d: entropy pass %v (%#016x), math.Log2 loop %v (%#016x)",
				b, samples, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkEntropyPass times one float64 entropy pass over a 10-bin
// joint with one cell in eight zero, at m = 337; mathLog2 times the
// math.Log2 loop it replaces.
func BenchmarkEntropyPass(b *testing.B) {
	ws := entropyWorkspace(10)
	rng := rand.New(rand.NewSource(3))
	for x := range ws.joint {
		if rng.Intn(8) > 0 {
			ws.joint[x] = float64(float32(rng.Float64() * 337 / 8))
		}
	}
	inv := 1.0 / 337
	b.Run("pass", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			entropySink = ws.jointEntropy(inv)
		}
	})
	b.Run("mathLog2", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			entropySink = entropyLoop(ws.joint, inv)
		}
	})
}

// entropySink keeps the benchmarked passes from being optimized away.
var entropySink float64
