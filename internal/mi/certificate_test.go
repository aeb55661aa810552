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
	"repro/internal/simd"
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
// exact kernels at both precisions: every observed and permuted MI
// stays under S/(m·ln 2) + slack; the certified observation returns
// the exact kernel's value, or proves it below the cut, for cuts at,
// one ulp either side of, and between the exact observed MIs (so it
// keeps exactly the exact kernel's survivors and weights); and the
// early-exit sweeps return the per-permutation loop's (evals, survived)
// for the same kinds of obs around the exact permuted values — with and
// without the permuted-row cache.
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
		for _, prec := range []Precision{Float64, Float32} {
			e := NewEstimator(wm)
			ws := NewWorkspacePrec(e, prec)
			pc := NewPermCache(e, perms, n)
			slack := e.slack[prec]
			scale := float64(m) * math.Ln2
			// bounded checks MI v against the certificate of the joint
			// fillBlocked just left in ws, then finishes that joint and
			// requires the exact kernel's value.
			bounded := func(what string, i, j int, v float64) {
				t.Helper()
				if bound := e.certSum(i, j, prec, ws)/scale + slack; !(v <= bound) {
					t.Fatalf("%v order %d bins %d m %d pair (%d,%d) %s: MI %v > bound %v (slack %v)",
						prec, order, bins, m, i, j, what, v, bound, slack)
				}
				if got := e.finishBlocked(i, j, prec, ws); got != v {
					t.Fatalf("%v pair (%d,%d) %s: fill+finish %v != kernel %v", prec, i, j, what, got, v)
				}
			}
			observed := make([]float64, 0, n*(n-1)/2)
			vals := make([]float64, q)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					var v float64
					if prec == Float32 {
						v = e.PairBlocked32(i, j, ws)
					} else {
						v = e.PairBlocked(i, j, ws)
					}
					observed = append(observed, v)
					e.fillBlocked(i, j, nil, nil, nil, prec, ws)
					bounded("observed", i, j, v)
					for p := range perms {
						if prec == Float32 {
							vals[p] = e.PairPermutedBlocked32(i, j, perms[p], ws)
						} else {
							vals[p] = e.PairPermutedBucketed(i, j, perms[p], ws)
						}
						e.prepareRowKeys(i, ws)
						e.fillBlocked(i, j, perms[p], nil, nil, prec, ws)
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
							var gotEvals int
							var gotSurv bool
							if prec == Float32 {
								gotEvals, gotSurv = e.SweepBucketed32(i, j, obs, perms, po, pw, ws)
							} else {
								gotEvals, gotSurv = e.SweepBucketed(i, j, obs, perms, po, pw, ws)
							}
							if gotEvals != wantEvals || gotSurv != wantSurv {
								t.Fatalf("%v pair (%d,%d) obs %v cached %v: sweep (%d,%v) != per-permutation loop (%d,%v); values %v",
									prec, i, j, obs, cached, gotEvals, gotSurv, wantEvals, wantSurv, vals)
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
						var v float64
						var below bool
						if prec == Float32 {
							v, below = e.PairBlockedCut32(i, j, cut, ws)
						} else {
							v, below = e.PairBlockedCut(i, j, cut, ws)
						}
						if below && !(want < cut) || !below && v != want {
							t.Fatalf("%v pair (%d,%d) cut %v: certified observation (%v, below %v), exact MI %v",
								prec, i, j, cut, v, below, want)
						}
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
	s64 := certSlack(337, 10, 3, Float64)
	if math.Abs(s64-want64) > 1e-15 || s64 < 1.41e-4 || s64 > 1.43e-4 {
		t.Fatalf("float64 slack at m=337, b=10 = %v, want %v (~1.42e-4)", s64, want64)
	}
	rho32 := certGamma(346) + certPartition
	want32 := 1.01*(2*rho32*lb+2*certGamma(338)*(lb+1.443)+certUnit*(18*lb+15)) + eval
	if s32 := certSlack(337, 10, 3, Float32); math.Abs(s32-want32) > 1e-15 || s32 <= s64 {
		t.Fatalf("float32 slack %v, want %v (above the float64 slack %v)", s32, want32, s64)
	}
	if !math.IsInf(certSlack(200000, 10, 3, Float64), 1) || !math.IsInf(certSlack(100, 5000, 3, Float64), 1) {
		t.Fatal("certificate not switched off outside the derivation's regime")
	}
	e, _ := buildEstimator(t, randomGenes(rand.New(rand.NewSource(1)), 2, 50), 3, 10)
	for _, c := range []float64{0, -1, math.NaN()} {
		if _, ok := e.certCut(c, Float64); ok {
			t.Fatalf("certificate armed for cut %v", c)
		}
	}
	if cut, ok := e.certCut(0.5, Float64); !ok || cut != (0.5-e.slack[Float64])*math.Ln2*50 {
		t.Fatalf("certCut(0.5) = %v, %v", cut, ok)
	}
}

// TestLog2ErrorModel checks the simd.Log2 accuracy the float32 slack
// assumes, |Log2(x) − log2(x)| ≤ 2u·|log2 x| + 4u, over (0, 1] — every
// exponent, random mantissas, and the float32 neighbourhood of 1.
func TestLog2ErrorModel(t *testing.T) {
	const u = certUnit
	check := func(x float32) {
		if x <= 0 || x > 1 {
			return
		}
		want := math.Log2(float64(x))
		got := float64(simd.Log2(x))
		if err := math.Abs(got - want); err > 2*u*math.Abs(want)+4*u {
			t.Fatalf("Log2(%g) = %v, want %v (error %g over the model)", x, got, want, err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for exp := -149; exp <= 0; exp++ {
		for r := 0; r < 2000; r++ {
			check(float32(math.Ldexp(1+rng.Float64(), exp-1)))
		}
	}
	x := float32(1)
	for r := 0; r < 1<<16; r++ {
		check(x)
		x = math.Nextafter32(x, 0)
	}
}
