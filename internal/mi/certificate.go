// Jensen certificate for the early-exit permutation sweep.
//
// The per-pair permutation test needs only a verdict from each
// permutation — does its MI reach the observed value? — not the value
// itself. Most permutations lose by a wide margin, and for those the
// entropy pass (one log per occupied joint cell, 40–45% of an
// evaluation) can be replaced by a bound that costs one multiply-add
// per cell.
//
// The bound. For a joint distribution q and any product distribution
// π = p_i⊗p_j, Jensen's inequality on the concave log gives
//
//	KL(q‖π) = E_q[log2(q/π)] ≤ log2 E_q[q/π] = log2 Σ_ab q_ab²/π_ab,
//
// and with π the marginals of q this is MI ≤ log2(1 + χ²). On the
// unnormalized joint J (weighted counts, Σ J ≈ m) and the normalized
// float64 marginals p (bspline.Marginal) the sweep computes
//
//	S = Σ_ab J_ab² · (1/p_i(a)) · (1/p_j(b)),
//
// so the bound reads MI ≤ log2(S/m²). A permutation is certified — it
// cannot reach obs, so the sweep moves on without the entropy pass —
// when log2(S/m²) + slack < obs. Every other permutation gets its exact
// MI from the same joint, so verdicts, early-exit points, and every
// count are unchanged. The test is evaluated as S < cut with
// cut = 2^(obs−slack)·m² computed once per sweep: no log and no
// division per evaluation.
//
// The slack. The bound holds exactly for exact arithmetic on a joint
// whose marginals are p; the computed MI differs in three ways, and the
// slack covers all of them. Let u = 2⁻²⁴ (float32 unit roundoff),
// γ_n = n·u/(1 − n·u), and let δ = 1e-6 bound the partition-of-unity
// error |Σ_u w(s,u) − 1| of the float32 stencils with a wide margin
// (the float64 Cox–de Boor values round once to float32, so the true
// error is about u).
//
//  1. Marginals. Each joint cell is a float32 block accumulation of at
//     most m nonnegative products, merged into the joint with at most
//     k² more additions (float64 ones, whose error is far below u, or
//     float32 ones on the float32 path), so it is within γ_{m+1}
//     (float32 path: γ_{m+k²}) of the exact product sum. Summing a row over b uses gene j's partition
//     of unity, so the row sums r_a of t = J/m equal p_i(a)·(1 + η_a)
//     with |η_a| ≤ ρ = γ_{m+1} + δ (float32: the joint term γ_{m+k²}
//     plus γ_{m+1} for its float32 marginals, below). Writing
//     E_r = Σ_a (r_a − p_i(a))·log2 p_i(a), the exact identity
//     MI_c = Σ_ab t·log2(t/(p_i p_j)) + E_r + E_c holds for the value
//     MI_c = H(p_i) + H(p_j) − H(t) the formula evaluates, and
//     |E_r| ≤ ρ·H(p_i) ≤ ρ·log2 b.
//  2. Joint mass. With Z = Σ t and q = t/Z, the Jensen step gives
//     Σ t·log2(t/(p_i p_j)) ≤ Z·log2(S/m²) − Z·log2 Z. Here
//     |Z − 1| ≤ ρ, −Z·log2 Z ≤ (1 − Z)/ln 2 ≤ 1.443·ρ, and
//     (Z − 1)·log2(S/m²) ≤ ρ·(log2 b + O(ρ)) because
//     2·log2 Z ≤ log2(S/m²) ≤ log2 b + 2·log2(1 + ρ). Altogether
//     MI_c ≤ log2(S/m²) + ρ·(3·log2 b + 1.443) + O(ρ²).
//  3. Rounding of the evaluation itself. In float64 the entropies,
//     S, and cut carry relative errors of a few b²·2⁻⁵³ — below 1e-12
//     bits at b ≤ 12 and far inside the 1% margin below for any b this
//     guard admits. At Float32 the marginal entropies come from float32
//     marginals (within γ_{m+1} of p, moving each H by at most
//     γ_{m+1}·(log2 b + 1.443)), and Entropy32/EntropyDot round each
//     scaled cell, log, and product: with simd.Log2 accurate to
//     2u·|log2 x| + 4u (TestLog2ErrorModel) the three entropies move by
//     at most u·(18·log2 b + 15).
//
// The slack is therefore
//
//	Float64: 1.01·ρ·(4·log2 b + 2.5) + 1e-12,          ρ = γ_{m+1} + δ
//	Float32: 1.01·(ρ·(4·log2 b + 2.5) + u·(18·log2 b + 15)) + 1e-12,
//	         ρ = γ_{m+k²} + γ_{m+1} + δ
//
// where ρ·(4·log2 b + 2.5) exceeds the ρ·(3·log2 b + 1.443) of step 2
// (and, at Float32, the two marginal terms of step 3) by at least 1.6·ρ
// for b ≥ 2, which together with the 1% factor absorbs the O(ρ²) terms
// and the float64 evaluation error. At m = 337, b = 10 the float64 slack is
// 3.4e-4 bits. The derivation needs ρ small and b moderate, so the
// certificate switches itself off (infinite slack) when
// (m + k²)·u > 0.01 (m ≳ 1.6e5) or b > 4096. Two more guards keep it
// exact: it only certifies when obs > 0 (a computed MI clamps at 0, so
// a bound below obs ≤ 0 proves nothing about the clamped value), and a
// marginal of 0 stores a reciprocal of 0 — its joint row is then
// exactly 0, as every weight of that bin is 0.
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
	rho := certGamma(m+1) + certPartition
	var extra float64
	if prec == Float32 {
		rho += certGamma(m + k*k)
		extra = certUnit * (18*lb + 15)
	}
	return 1.01*(rho*(4*lb+2.5)+extra) + 1e-12
}

// certCut returns the bound S must stay under for a permutation to be
// certified against obs, or 0 (nothing certifies) when obs ≤ 0, obs is
// NaN, or the certificate is off.
func (e *Estimator) certCut(obs float64, prec Precision) float64 {
	if !(obs > 0) {
		return 0
	}
	mm := float64(e.wm.Samples)
	return math.Exp2(obs-e.slack[prec]) * mm * mm
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

// jensenSum returns S = Σ_ab J_ab²/(p_i(a)·p_j(b)) over the filled
// float64 joint.
func (e *Estimator) jensenSum(i, j int, joint []float64, bins int) float64 {
	ri := e.rinv[i*bins : (i+1)*bins]
	rj := e.rinv[j*bins : (j+1)*bins]
	var s float64
	for a, ra := range ri {
		row := joint[a*bins : (a+1)*bins]
		var t float64
		for b, c := range row {
			t += c * c * rj[b]
		}
		s += t * ra
	}
	return s
}

// jensenSum32 is jensenSum over the float32 joint, accumulated in
// float64.
func (e *Estimator) jensenSum32(i, j int, joint []float32, bins int) float64 {
	ri := e.rinv[i*bins : (i+1)*bins]
	rj := e.rinv[j*bins : (j+1)*bins]
	var s float64
	for a, ra := range ri {
		row := joint[a*bins : (a+1)*bins]
		var t float64
		for b, c := range row {
			c64 := float64(c)
			t += c64 * c64 * rj[b]
		}
		s += t * ra
	}
	return s
}
