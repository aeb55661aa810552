package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bspline"
	"repro/internal/expr"
	"repro/internal/mat"
	"repro/internal/perm"
)

// certRows builds n genes of m samples mixing the shapes the certificate
// must survive: Gaussian, constant, two-valued, heavily tied, NaN-imputed,
// strongly correlated with the previous gene (so observed MIs sit far
// above their permuted nulls), and identical to the previous gene.
func certRows(rng *rand.Rand, n, m int) [][]float32 {
	rows := make([][]float32, n)
	for g := range rows {
		row := make([]float32, m)
		switch rng.Intn(7) {
		case 0:
			for s := range row {
				row[s] = float32(rng.NormFloat64())
			}
		case 1:
			for s := range row {
				row[s] = 3
			}
		case 2:
			for s := range row {
				row[s] = float32(rng.Intn(2))
			}
		case 3:
			for s := range row {
				row[s] = float32(rng.Intn(4))
			}
		case 4:
			for s := range row {
				if rng.Intn(3) == 0 {
					row[s] = float32(math.NaN())
				} else {
					row[s] = float32(rng.NormFloat64())
				}
			}
			expr.ImputeRowMeanValues(row)
		case 5:
			for s := range row {
				row[s] = float32(rng.NormFloat64())
				if g > 0 {
					row[s] = 0.9*rows[g-1][s] + 0.1*row[s]
				}
			}
		default:
			for s := range row {
				row[s] = float32(rng.NormFloat64())
			}
			if g > 0 {
				copy(row, rows[g-1])
			}
		}
		rows[g] = row
	}
	return rows
}

// sweepReference is the early-exit verdict of a per-permutation loop
// over the exact permuted values.
func sweepReference(vals []float64, obs float64) (int, bool) {
	for p, v := range vals {
		if v >= obs {
			return p + 1, false
		}
	}
	return len(vals), true
}

// cutsAround returns cuts at, one ulp either side of, and between the
// values vals, plus 0 and cuts above every value by one and two slacks.
func cutsAround(rng *rand.Rand, vals []float64, slack float64) []float64 {
	var cuts []float64
	hi := 0.0
	for _, v := range vals {
		cuts = append(cuts, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		hi = math.Max(hi, v)
	}
	for r := 0; r < 4; r++ {
		cuts = append(cuts, rng.Float64()*1.5*hi)
	}
	return append(cuts, 0, hi+slack, hi+2*slack)
}

// FuzzSweepCertificate checks the third-order certificate against the
// exact kernels: every observed and permuted MI
// stays under S/(m·ln 2) + slack; the certified observation returns
// the exact kernel's value, or proves it below the cut, for cuts at,
// one ulp either side of, and between the exact observed MIs (so it
// keeps exactly the exact kernel's survivors and weights); and the
// early-exit sweeps return the per-permutation loop's (evals, survived)
// for the same kinds of obs around the exact permuted values — with and
// without the permuted-row cache. Every filled joint also matches the
// portable scatter's bit for bit (requirePortableFill).
func FuzzSweepCertificate(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(7), uint16(333))  // order 3, 10 bins, m = 337
	f.Add(uint64(2), uint8(0), uint8(3), uint16(0))    // order 1, m = 4
	f.Add(uint64(3), uint8(1), uint8(0), uint16(60))   // order 2, 2 bins (bins == order)
	f.Add(uint64(4), uint8(3), uint8(8), uint16(150))  // order 4, 12 bins
	f.Add(uint64(5), uint8(2), uint8(9), uint16(396))  // order 3, 12 bins, m = 400
	f.Add(uint64(6), uint8(2), uint8(0), uint16(9))    // order 3, 3 bins (bins == order), m = 13
	f.Add(uint64(7), uint8(3), uint8(200), uint16(77)) // order 4
	f.Add(uint64(8), uint8(2), uint8(7), uint16(26))   // order 3, 10 bins, m = 30 (order × bins)
	f.Add(uint64(9), uint8(3), uint8(8), uint16(44))   // order 4, 12 bins, m = 48 (order × bins)
	f.Add(uint64(10), uint8(2), uint8(7), uint16(0))   // order 3, 10 bins, m = 4
	f.Fuzz(func(t *testing.T, seed uint64, orderIn, binsIn uint8, mIn uint16) {
		order := 1 + int(orderIn%4)
		bins := order + int(binsIn)%(13-order)
		m := 4 + int(mIn)%397
		const n, q = 6, 6
		rng := rand.New(rand.NewSource(int64(seed)))
		data := mat.FromRows(certRows(rng, n, m))
		data.RankNormalize()
		wm := bspline.Precompute(bspline.MustNew(order, bins), data)
		perms := perm.MustNewPool(seed, m, q).Perms()
		e := NewEstimator(wm)
		ws := NewWorkspace(e)
		pc := NewPermCache(e, perms, n)
		slack := e.slack
		scale := float64(m) * math.Ln2
		// bounded checks MI v against the certificate of the joint
		// fillBlocked just left in ws, then finishes that joint and
		// requires the exact kernel's value.
		bounded := func(what string, i, j int, v float64) {
			t.Helper()
			if bound := e.certSum(i, j, ws)/scale + slack; !(v <= bound) {
				t.Fatalf("order %d bins %d m %d pair (%d,%d) %s: MI %v > bound %v (slack %v)",
					order, bins, m, i, j, what, v, bound, slack)
			}
			if got := e.miFromWorkspace(i, j, ws); got != v {
				t.Fatalf("pair (%d,%d) %s: fill+finish %v != kernel %v", i, j, what, got, v)
			}
		}
		observed := make([]float64, 0, n*(n-1)/2)
		vals := make([]float64, q)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := e.PairBlocked(i, j, ws)
				observed = append(observed, v)
				e.fillBlocked(i, j, nil, nil, nil, ws)
				requirePortableFill(t, e, i, j, nil, ws)
				bounded("observed", i, j, v)
				for p := range perms {
					// The permuted values come from the counting-sort
					// reference, which the block fill must match bit for
					// bit.
					vals[p] = e.PairPermutedBucketed(i, j, perms[p], ws)
					e.prepareRowKeys(i, ws)
					e.fillBlocked(i, j, perms[p], nil, nil, ws)
					requirePortableFill(t, e, i, j, perms[p], ws)
					bounded(fmt.Sprintf("perm %d", p), i, j, vals[p])
				}
				offs, w := pc.Gene(j)
				for _, obs := range cutsAround(rng, vals, slack) {
					wantEvals, wantSurv := sweepReference(vals, obs)
					for _, cached := range []bool{false, true} {
						po, pw := []int32(nil), []float32(nil)
						if cached {
							po, pw = offs, w
						}
						gotEvals, gotSurv := e.SweepBucketed(i, j, obs, perms, po, pw, ws)
						if gotEvals != wantEvals || gotSurv != wantSurv {
							t.Fatalf("pair (%d,%d) obs %v cached %v: sweep (%d,%v) != per-permutation loop (%d,%v); values %v",
								i, j, obs, cached, gotEvals, gotSurv, wantEvals, wantSurv, vals)
						}
					}
				}
			}
		}
		for _, cut := range cutsAround(rng, observed, slack) {
			x := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := observed[x]
					x++
					v, below := e.PairBlockedCut(i, j, cut, ws)
					if below && !(want < cut) || !below && v != want {
						t.Fatalf("pair (%d,%d) cut %v: certified observation (%v, below %v), exact MI %v",
							i, j, cut, v, below, want)
					}
				}
			}
		}
	})
}

// TestCertSlack pins the slack formula at the T2 shape, its off
// switch, and the cut's guards.
func TestCertSlack(t *testing.T) {
	lb := math.Log2(10)
	eval := (100 + 40 + 64) * 0x1p-53 * (2*lb + 8)
	rho64 := certGamma(338) + certPartition
	want64 := 1.01*2*rho64*lb + eval
	s64 := certSlack(337, 10, 3)
	if math.Abs(s64-want64) > 1e-15 || s64 < 1.41e-4 || s64 > 1.43e-4 {
		t.Fatalf("slack at m=337, b=10 = %v, want %v (~1.42e-4)", s64, want64)
	}
	if !math.IsInf(certSlack(200000, 10, 3), 1) || !math.IsInf(certSlack(100, 5000, 3), 1) {
		t.Fatal("certificate not switched off outside the derivation's regime")
	}
	e, _ := buildEstimator(t, randomGenes(rand.New(rand.NewSource(1)), 2, 50), 3, 10)
	for _, c := range []float64{0, -1, math.NaN()} {
		if _, ok := e.certCut(c); ok {
			t.Fatalf("certificate armed for cut %v", c)
		}
	}
	if cut, ok := e.certCut(0.5); !ok || cut != (0.5-e.slack)*math.Ln2*50 {
		t.Fatalf("certCut(0.5) = %v, %v", cut, ok)
	}
}
