// Third-order certificate for the block-scatter kernels' cuts.
//
// Two passes of phase 4 need only a verdict from most MI evaluations,
// not the value: the observe pass keeps a pair only when its MI reaches
// the threshold I_α, and the early-exit permutation sweep only asks
// whether a permuted MI reaches the observed one. Most evaluations fall
// well short, and for those the entropy pass (one log per occupied
// joint cell, about 40% of an evaluation) can be replaced by a bound
// that costs a few multiply-adds per cell.
//
// The bound. The fourth derivative of ln is −6/x⁴ < 0, so ln lies below
// its third-order Taylor polynomial at 1 for every x > 0:
//
//	ln x ≤ (x − 1) − (x − 1)²/2 + (x − 1)³/3
//
// (the difference f has f(1) = 0 and f'(x) = (x − 1)³/x, so x = 1 is its
// minimum). On the unnormalized joint J (weighted counts, Σ J ≈ m), with
// t = J/m, the float64 marginals p (bspline.Marginal) and
// d = t·(1/p_i(a))·(1/p_j(b)) − 1, every cell with t > 0 obeys
// t·ln(t/(p_i(a)·p_j(b))) ≤ t·g(d), g(d) = d − d²/2 + d³/3, and a cell
// with t = 0 adds 0 to both sides. Summed cell by cell, with no
// assumption on Σ t,
//
//	Σ_ab t·log2(t/(p_i p_j)) ≤ B = (1/ln 2)·Σ_ab t·g(d).
//
// Under weak dependence (d small) B tracks χ²/(2·ln 2), the MI's own
// leading term; the Jensen bound MI ≤ log2(1 + χ²) is about twice as
// loose there. The kernels compute S = Σ_ab J·g(d) = m·ln 2·B
// from the reciprocal marginals the Estimator keeps, and an evaluation
// is certified — its MI cannot reach the cut c, so the caller moves on
// without the entropy pass — when S < (c − slack)·ln 2·m: no log and no
// division per evaluation. Every other evaluation gets its exact MI
// from the same joint, so verdicts, survivors, weights and every count
// are those of the exact kernels.
//
// The slack. The computed MI_c differs from the exact-arithmetic bound
// in three ways, and the slack covers each. Let u = 2⁻²⁴ (float32 unit
// roundoff), γ_n = n·u/(1 − n·u), and let δ = 1e-6 bound the
// partition-of-unity error |Σ_u w(s,u) − 1| of the float32 stencils
// with a wide margin (the float64 Cox–de Boor values round once to
// float32, so the true error is about u).
//
//  1. Marginals. Each joint cell is a float32 block accumulation of at
//     most m nonnegative products, merged into the joint with at most
//     k² more additions (float64 ones, whose error is far below u, or
//     float32 ones on the float32 path), so it is within γ_{m+1}
//     (float32 path: γ_{m+k²}) of the exact product sum. Summing a row
//     over b uses gene j's partition of unity, so the row sums r_a of t
//     equal p_i(a)·(1 + η_a) with |η_a| ≤ ρ = γ_{m+1} + δ (float32:
//     γ_{m+k²} + δ). Writing E_r = Σ_a (r_a − p_i(a))·log2 p_i(a) and
//     E_c likewise for the columns, the value the formula evaluates,
//     MI_c = H(p_i) + H(p_j) − H(t), equals Σ_ab t·log2(t/(p_i p_j)) +
//     E_r + E_c exactly, and |E_r|, |E_c| ≤ ρ·H(p) ≤ ρ·log2 b. So
//     MI_c ≤ B + 2ρ·log2 b. Because the bound holds per cell, no
//     joint-mass term Σ t − 1 enters.
//  2. Float32 entropies. At Float32 the marginal entropies come from
//     float32 marginals (within γ_{m+1} of p, moving each H by at most
//     γ_{m+1}·(log2 b + 1.443)), and Entropy32/EntropyDot round each
//     scaled cell, log and product: with simd.Log2 accurate to
//     2u·|log2 x| + 4u (TestLog2ErrorModel) the three entropies move by
//     at most u·(18·log2 b + 15).
//  3. Evaluation rounding. In this regime a computed MI never exceeds
//     log2 b + 1, so a larger cut is met by no evaluation and certifying
//     against it cannot err. Below that, a certified S caps the terms:
//     each negative term t·g(d), d ∈ [−1, 0), is at least −1.84·t, so
//     the negative terms sum to at least −1.84·(1 + ρ), and the positive
//     ones to at most (log2 b + 1)·ln 2 + 1.84·(1 + ρ). Each term
//     carries a relative rounding error of at most about 50·2⁻⁵³ (the
//     rounded reciprocals and products in d, and Horner's rule for g,
//     whose relative condition is at most 2.6 for d ≥ 0), and the
//     row-by-row sum adds 2b·2⁻⁵³ times their magnitudes; the float64
//     entropies sum b² + 2b terms of total magnitude at most
//     2·log2 b + 1. All of it, and the cut's few roundings, stay below
//     ε_eval = (b² + 4b + 64)·2⁻⁵³·(2·log2 b + 8) bits.
//
// The slack is therefore
//
//	Float64: 1.01·2ρ·log2 b + ε_eval,                                        ρ = γ_{m+1} + δ
//	Float32: 1.01·(2ρ·log2 b + 2γ_{m+1}·(log2 b + 1.443) + u·(18·log2 b + 15)) + ε_eval,
//	         ρ = γ_{m+k²} + δ
//
// where the 1% factor absorbs the O(ρ²) cross terms of step 1 (and the
// float64 marginals' own rounding). At m = 337, b = 10 the float64 slack
// is 1.42e-4 bits. The derivation needs ρ small and b moderate, so the
// certificate switches itself off (infinite slack) when
// (m + k²)·u > 0.01 (m ≳ 1.6e5) or b > 4096. Two more guards keep it
// exact: it only certifies against a cut c > 0 (a computed MI clamps at
// 0, so a bound below c ≤ 0 proves nothing about the clamped value), and
// a marginal of 0 stores a reciprocal of 0 — its joint row is then
// exactly 0, as every weight of that bin is 0, and adds 0 to S.
package mi

import "math"

const (
	// certUnit is the float32 unit roundoff u.
	certUnit = 1.0 / (1 << 24)
	// certPartition bounds the stencils' partition-of-unity error δ.
	certPartition = 1e-6
	// certMaxRho (on (m + k²)·u) and certMaxBins bound the regime the
	// slack derivation covers; outside it the certificate is off.
	certMaxRho  = 0.01
	certMaxBins = 4096
)

// certGamma is γ_n = n·u/(1 − n·u), the float32 bound on the relative
// error of an n-term sum of nonnegative products.
func certGamma(n int) float64 {
	nu := float64(n) * certUnit
	return nu / (1 - nu)
}

// certSlack returns the certificate slack in bits for m samples, b bins,
// and spline order k at the given precision (see the package comment
// above for the derivation), or +Inf outside the regime it covers.
func certSlack(m, bins, k int, prec Precision) float64 {
	if float64(m+k*k)*certUnit > certMaxRho || bins > certMaxBins {
		return math.Inf(1)
	}
	lb := math.Log2(float64(bins))
	b := float64(bins)
	eval := (b*b + 4*b + 64) * 0x1p-53 * (2*lb + 8)
	if prec == Float32 {
		rho := certGamma(m+k*k) + certPartition
		return 1.01*(2*rho*lb+2*certGamma(m+1)*(lb+1.443)+certUnit*(18*lb+15)) + eval
	}
	rho := certGamma(m+1) + certPartition
	return 1.01*2*rho*lb + eval
}

// certCut returns the value S must stay under for an evaluation to be
// certified below the cut c, and false (nothing certifies) when c ≤ 0,
// c is NaN, or the certificate is off.
func (e *Estimator) certCut(c float64, prec Precision) (float64, bool) {
	slack := e.slack[prec]
	if !(c > 0) || math.IsInf(slack, 1) {
		return 0, false
	}
	return (c - slack) * math.Ln2 * float64(e.wm.Samples), true
}

// setReciprocals stores 1/p_g(a) for gene g's float64 marginal p (0
// where p is 0).
func (e *Estimator) setReciprocals(g int, p []float64) {
	dst := e.rinv[g*len(p) : (g+1)*len(p)]
	for a, v := range p {
		if v > 0 {
			dst[a] = 1 / v
		} else {
			dst[a] = 0
		}
	}
}

// certSum returns S = Σ_ab J·g(d) over the workspace's filled joint.
func (e *Estimator) certSum(i, j int, ws *Workspace) float64 {
	bins := ws.bins
	ri := e.rinv[i*bins : (i+1)*bins]
	rj := e.rinv[j*bins : (j+1)*bins]
	inv := 1 / float64(e.wm.Samples)
	if ws.prec == Float32 {
		return certSumJoint(ri, rj, ws.joint32, inv)
	}
	return certSumJoint(ri, rj, ws.joint, inv)
}

// certSumJoint is S over joint, with ri and rj the two genes'
// reciprocal marginals and inv = 1/m, accumulated row by row in
// float64.
func certSumJoint[T float32 | float64](ri, rj []float64, joint []T, inv float64) float64 {
	bins := len(rj)
	var s float64
	for a, ra := range ri {
		ra *= inv
		row := joint[a*bins : (a+1)*bins]
		var t float64
		for b, c := range row {
			c64 := float64(c)
			d := c64*ra*rj[b] - 1
			t += c64 * (d * (1 - d*(0.5-d*(1.0/3))))
		}
		s += t
	}
	return s
}
