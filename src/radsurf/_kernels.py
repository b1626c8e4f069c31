"""Monte Carlo counting kernels.

Counts are exact integers, so chunking never changes results.

Filtered acceptance count
-------------------------
`facet_accept_count` decides the n x k pairs (sample r, constraint j)

    E_rj = base_j + s_r <a_r, x_j> - offsets_j <= 0

(a_r = dirs[r], x_j = normals[j], s_r = scales[r]) the way the float64
expression ``base + s * (dirs @ normals.T) <= offsets`` decides them, but
takes the product in float32 and recomputes in float64 only the pairs
float32 cannot resolve.  This is the filtered-predicate technique of exact
geometry (Shewchuk 1997): a cheap evaluation with a rigorous error bound,
and an exact fallback inside the bound.

Write u = 2^-24 and u' = 2^-53 for the unit roundoffs of float32 and
float64, eta = 2^-150 for the absolute error of a float32 rounding that
underflows, gamma_n = n u / (1 - n u) and gamma'_n likewise with u'.  Per
call, N = max_j |x_j|, C = max_j |offsets_j - base_j|, B = max_j |base_j|
and P = (1 + max_r |s_r|)(1 + max_r |a_r|)(1 + N); per row r:

* Float32 evaluation.  The kernel rounds a_r, x_j and s_r to float32,
  rounds c_j = fl64(offsets_j - base_j) to float32, forms the product
  g = <a_r, x_j> with a float32 matrix product, and evaluates
  t_rj = fl32(fl32(s_r g) - c_j).  Rounding a and x costs (2u + u^2)
  sum_i |a_i x_i|; the float32 inner product, in any summation order (so
  for any BLAS), costs gamma_d sum_i |a_i x_i| (Higham, Accuracy and
  Stability of Numerical Algorithms, Thm 3.1), plus d eta from products
  that underflow; sum_i |a_i x_i| <= |a_r| N by Cauchy-Schwarz.  Rounding
  s, the scale and the subtraction add u each on |s_r| |a_r| N, and the
  two roundings of c and the subtraction u' + 2u on C.  Collecting terms
  and rounding every second-order coefficient up,

      |t_rj - E_rj| <= (gamma_d + 8u) |s_r| |a_r| N + 3u C + 4 (d + 4) eta P.

* The float64 expression's own error.  fl64(base_j + fl64(s_r g~)), with
  g~ the float64 inner product, differs from base_j + s_r <a_r, x_j> by at
  most gamma'_(d+3) (|s_r| |a_r| N + B) + (d + 4) eta P, so the float64
  expression accepts the pair whenever E_rj < -that and rejects it
  whenever E_rj > that.

The margin m_r is twice the sum of the two bounds; the factor 2 also covers
the float64 rounding of the margin itself.  So t_rj > m_r proves that the
float64 expression rejects the pair, and t_rj < -m_r that it accepts it.
The bounds assume no float32 overflow: every m_r is +inf unless
P <= 2^100, C <= 2^100 and d u < 1/2, and then every float32 quantity
above stays below 2^102.  A NaN margin or row maximum decides nothing.

The constraints go in blocks of max(1, 2^22 // n), which bounds the
float32 working set.  Per block the kernel takes the row maximum M_r of
t_rj: M_r > m_r rejects the sample; M_r < -m_r accepts every pair of the
block; anything else re-evaluates the block's pairs of that sample with the
float64 expression.  A rejected sample leaves the later blocks.  Every pair
is thus decided either as the float64 expression decides it or by that
expression itself, so the count equals the dense float64 count.  (The
float64 inner products of the recheck come from a product of another
shape, which a BLAS may round differently; that can matter only for a pair
within gamma'_(d+3)-relative of its boundary.)
"""

import math

import numpy as np

_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
_ETA = 2.0 ** -150
_SAFE = 2.0 ** 100
_BLOCK_ENTRIES = 1 << 22  # float32 entries of one block of products


def _gamma(n, u):
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def _margins(dirs, scales, normals, base, slack):
    """Per-row margin m_r of the module docstring; +inf when the float32
    evaluation could overflow."""
    d = dirs.shape[1]
    s = np.abs(scales)
    a = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
    N = float(np.sqrt(np.einsum("ij,ij->i", normals, normals)).max())
    C = float(np.abs(slack).max())
    B = float(np.abs(base).max())
    P = (1.0 + s.max()) * (1.0 + a.max()) * (1.0 + N)
    if not (P <= _SAFE and C <= _SAFE):
        return np.full(s.shape, math.inf)
    g64 = _gamma(d + 3, _U64)
    alpha = 2.0 * (_gamma(d, _U32) + 8 * _U32 + g64) * N
    beta = 2.0 * (3 * _U32 * C + g64 * B + 5 * (d + 4) * _ETA * P)
    return alpha * (s * a) + beta


def facet_accept_count(dirs, scales, normals, base, offsets):
    """Count samples y_k = anchor + scales[k] * dirs[k] satisfying every
    constraint  base[j] + scales[k] * <dirs[k], normals[j]> <= offsets[j],
    exactly as the float64 expression counts them (see the module
    docstring).
    """
    n = dirs.shape[0]
    k = normals.shape[0]
    if k == 0 or n == 0:
        return int(n)
    slack = offsets - base
    margin = _margins(dirs, scales, normals, base, slack)
    rows = np.arange(n)
    a32 = dirs.astype(np.float32)
    s32 = scales.astype(np.float32)
    x32 = normals.astype(np.float32)
    # clipped only to keep the cast finite: such calls have infinite margins
    c32 = np.clip(slack, -_SAFE, _SAFE).astype(np.float32)[:, None]
    step = max(1, _BLOCK_ENTRIES // n)
    j0 = 0
    while True:
        blk = slice(j0, j0 + step)
        t = x32[blk] @ a32.T  # (block, rows): row maxima reduce over axis 0
        t *= s32
        t -= c32[blk]
        top = t.max(axis=0)
        keep = ~(top > margin)  # negated comparisons: NaN decides nothing
        unsure = np.flatnonzero(~(np.abs(top) > margin))
        if unsure.size:
            r = rows[unsure]
            keep[unsure] = np.all(
                base[blk] + scales[r, None] * (dirs[r] @ normals[blk].T)
                <= offsets[blk], axis=1)
        j0 += step
        if j0 >= k or not keep.any():
            return int(np.count_nonzero(keep))
        if not keep.all():
            rows, a32, s32 = rows[keep], a32[keep], s32[keep]
            margin = margin[keep]


def polytope_shell_counts(pts, normals, offsets, eps):
    """How many points have their largest violation of the constraints
    <x, normals[j]> <= offsets[j] in (0, eps]: inside the offset-relaxed
    polytope but outside the polytope itself."""
    v = (pts @ normals.T - offsets[None, :]).max(axis=1)
    return int(np.count_nonzero((v > 0.0) & (v <= eps)))
