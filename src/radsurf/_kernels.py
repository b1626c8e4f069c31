"""Monte Carlo kernels: the float32-filtered facet chord, the float64
acceptance count (unused by the package) and the FD shell count.

Every kernel decides or evaluates its float64 expression per sample, so
chunking never changes results.

Facet chords
------------
`facet_chords` returns, per sample direction a_r, the chord
{s >= 0 : s <a_r, x_j> <= c_j for every j}, c_j = offsets_j - base_j:
the radii at which the point anchor + s a_r meets every constraint
base_j + s <a_r, x_j> <= offsets_j.  It does so for each direction and for
its reflection -a_r (antithetic directions), from one product.  The
constraints with c_j > 0 bound a chord from above only, at

    hi_r = 1 / M_r,   M_r = max_j v_rj,   v_rj = fl64(i_j fl64(<a_r, x_j>)),

i_j = fl64(1 / c_j), and hi_r = inf when M_r <= 0.  Negation is exact in
floating point, so v_rj of -a_r is -v_rj and M_r of -a_r is -min_j v_rj:
one matrix product gives both upper ends, reduced per row by its maximum
and its minimum in float64, or filtered against the caller's window in
float32 (below).  That covers every constraint of a construction polytope,
a box or a circumscribed polytope.  The rare constraints with c_j <= 0 are
evaluated densely in float64, with -<a_r, x_j> for -a_r: c_j < 0 with
<a_r, x_j> < 0 raises the lower end to c_j / <a_r, x_j>, and the chord is
empty when c_j < 0 and <a_r, x_j> >= 0 or when c_j = 0 and
<a_r, x_j> > 0.

Each row a_r stands for the direction rho_r a_r, rho_r > 0 its radius
(`radii`), and the chord of rho v is the chord of v over rho: the kernel
returns both ends divided by rho_r, fl(end / rho_r), after the chord is
decided (the lower end only when some c_j < 0; it is 0 otherwise).  So
every end and every cut leaves the kernel on the direction's radius
scale, by the one expression that its window test below assumes.

The normals may come as a stack of R sets (an (R, k, q) array) that share
base and offsets: facet Monte Carlo scores a direction theta Q_s through
<theta Q_s, x_j> = <theta, x_j Q_s^T>, so it rotates the k normals rather
than the n directions.  The chords of a block of rows against every set
come from one float64 product: the R k normals times the block's b
directions, one (R k) x q x b GEMM, reduced over each set's constraints.
A (k, q) array is the stack with R = 1 and takes exactly the unstacked
product.

Below _FLOAT32_MIN_D columns or _FLOAT32_MIN_K constraints, and for every
stack of R > 1 sets, the product is taken in float64.  Above, the cuts
come from a filtered predicate (Shewchuk 1997): a cheap float32 evaluation
with a rigorous error bound, and a float64 recheck of only the entries
inside the bound.  (Facet Monte Carlo stacks sets only up to q = 80
coordinates, below _FLOAT32_MIN_D, so its filtered products have R = 1.)

The filter works against the window top: facet Monte Carlo reads a chord
end only through F(end), the CDF of its radius table at the end the
kernel returns, on the direction's radius scale, and F is exactly 1 at
and above a top b (`top`: the first knot from which the table's CDF reads
exactly 1, at or below its window's end).  Constraint j with v_rj > 0 alone
ends the chord at s_rj = fl(fl(1 / v_rj) / rho_r), the expression by which
the kernel divides the ends it returns, and it is an in-window cut when
s_rj < b.  The kernel returns those cuts as (row, s_rj) when the caller
asks for them (`cuts`).  s_rj is nonincreasing in v_rj, so when a row has
a cut its largest v_rj is one, and that is M_r: the end fl(fl(1 / M_r) /
rho_r) is exactly the one the float64 expression gives.  When a row has
none, its end lies at or above b and the kernel returns hi_r = inf, which
F maps to 1 as it maps the true end.  So w = F(hi) - F(lo) keeps its bits,
and the proof rests on no arithmetic of the caller's: it reads the ends
as they come.
For -a_r the cuts are the entries with -v_rj > 0 and
fl(fl(1 / -v_rj) / rho_r) < b.  Every cut has v_rj > L_r, the float64
value of (1 / (b rho_r)) (1 - 8u'), which is 0 for b = inf: the two
roundings of s_rj and the three of L_r each move them by at most a
factor 1 + u', less than the 1 - 8u' makes up.

Write u = 2^-24 and u' = 2^-53 for the unit roundoffs of float32 and
float64, eta = 2^-150 for the absolute error of a float32 rounding that
underflows, gamma_n = n u / (1 - n u) and gamma'_n likewise with u'.  An
inner product of length d, in any summation order (so for any BLAS),
errs by at most gamma_d sum_i |a_i x_i| (Higham, Accuracy and Stability
of Numerical Algorithms, Thm 3.1), plus d eta from products that
underflow.  With X = max_j X_j, X_j >= |x_j| the bound below,
I = max_j i_j, Y = max_j X_j i_j and P = (1 + max_r |a_r|)(1 + X)(1 + I):

* The float32 value t_rj = fl32(<fl32(a_r), y_j>), y_j =
  fl32(fl32(x_j) fl32(i_j)), differs from the exact i_j <a_r, x_j> by at
  most (gamma_d + 12u) |a_r| Y + 4 d eta P.  Relative to sum_i |a_i x_i|
  i_j <= |a_r| |x_j| i_j (Cauchy-Schwarz), the roundings of a_i, x_i, i_j
  and of both products cost (1 + u)^5 - 1 and the sum gamma_d, which with
  gamma_d <= 1 stays below gamma_d + 12u; an element or product that
  underflows costs at most eta (1 + |a_i|)(1 + |x_i|)(1 + I) <= eta P,
  doubled by the sum and the scale.
* v_rj differs from the same exact value by at most gamma'_(d+1) |a_r| Y
  + d eta P.
* X_j comes from the float32 copy fl32(x_j) that the product reads, so the
  normals are read once: n_j, the float32 norm of that copy, errs by at
  most gamma_(d+2) relative plus sqrt(d) 2^-75 absolute (the sum of
  squares, the square root and squares that underflow), and each element
  of x_j is within u relative plus 2^-149 of its copy, so
  X_j = (1 + gamma_(d+3)) n_j + sqrt(d) 2^-74 >= |x_j|.

So e_r, the sum of the first two bounds, bounds |t_rj - v_rj|, and the
margin is m_r = 2 e_r, the factor 2 covering the float64 rounding of m_r
and of L_r - m_r.  Every entry with t_rj >= fl(L_r - m_r) is a candidate,
and the kernel recomputes only those in float64.  No cut is missed: a cut
has t_rj >= v_rj - e_r > L_r - e_r >= fl(L_r - m_r), because
L_r < v_rj <= 2 |a_r| Y, so that subtraction errs by at most
u' (L_r + m_r) <= e_r.  For -a_r the same argument holds with
a_r -> -a_r: |a_r| and so m_r are unchanged, and t_rj and v_rj change sign
exactly, so the candidates are the entries with t_rj <= -fl(L_r - m_r).

Without `cuts` the kernel needs M_r alone, and it rechecks only the
candidates that can attain it: those with also t_rj >= fl(R_r - 2 m_r),
R_r = max_j t_rj (a block of rows holds every constraint of its rows, so
R_r is final).  When the row has a cut, the argmax j* of v_rj is one and
so a candidate, and with R_r attained at j',
t_rj* >= v_rj* - e_r >= v_rj' - e_r >= R_r - 2 e_r >= fl(R_r - 2 m_r),
that subtraction erring by at most u' (|R_r| + 2 m_r) <= e_r.  For -a_r
the candidates are likewise also those with
t_rj <= -fl(-min_j t_rj - 2 m_r).  That leaves about one recheck per row
with a cut, where the cuts need every in-window entry, and costs a pass
for each row extreme.

One float64 pass rechecks both sides.  The bounds assume no float32
overflow: the product is taken in float64 unless P <= 2^100 and d u < 1/2,
and then every float32 quantity above stays below 2^102.  The recheck's
inner products come from another evaluation order than a BLAS product, so
M_r can differ from the float64 path's in its last bits, which moves
w = F(hi) - F(lo) by as little.
"""

import math

import numpy as np

_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
_ETA = 2.0 ** -150
_SAFE = 2.0 ** 100
# float64 entries gathered per recheck step into one reused buffer, few
# enough that the gathered rows are still in cache for the inner products
# (2-core x86 host, d = 1023: a recheck of 4100 candidates took 6.6 ms in
# steps of 2^16 entries and 20-24 ms in steps of 2^20; one of 14 400 took
# the same time in steps of 2^15 and 2^16)
_RECHECK_ENTRIES = 1 << 16
# bytes of one block of products, float32 or float64, each block holding
# every constraint of its rows: at 20000 samples of 68 coordinates
# (construct-d256) one 10.9 MB block raised the peak RSS by 10 MB over
# blocks of at most 8 MB (glibc's dynamic mmap threshold).  Facet Monte
# Carlo on two threads gives each thread's products half of it
# (`facet_chords`' budget).
_BLOCK_BYTES = 8 << 20
# The float32 product pays for its filter only on large products: below
# these sizes the float64 product is the faster one (timed on a 2-core x86
# host with OpenBLAS: at d = 68, k = 68 or d = 511, k = 511 float64 was
# faster, at d = 511, k = 5006 and d = 1023, k = 5006 float32 1.5-1.7x).
_FLOAT32_MIN_D = 384
_FLOAT32_MIN_K = 1024


def _gamma(n, u):
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def facet_chords(dirs, normals, base, offsets, top, radii, *, cuts=False,
                 budget=None, y32=None):
    """(lo, hi, cuts): the chords [lo, hi] of radii s >= 0 at which
    base[j] + s <a, normals[j]> <= offsets[j] holds for every j, for the
    2n directions a of rho [dirs; -dirs]: entry r < n is the chord of
    rho_r dirs[r], entry n + r that of its reflection -rho_r dirs[r], both
    from one product, as the float64 expressions give them for dirs[r]
    and then divided by rho_r (see the module docstring), and the
    in-window cuts of the float32 product when `cuts` is true.  An empty
    chord reads lo = hi = 0; with no constraints every chord is [0, inf).

    `top` is the window top b of the caller's radius table and `radii` the
    directions' radii rho_r > 0 (a scalar or n values; (R, n) with a stack
    of R sets).  On the float32 product an upper end that lies at or above
    b reads inf, and with `cuts` the cuts are (rows, ends): every entry,
    row r < 2n and constraint j, with end fl(fl(1 / v) / rho_r) < b for
    v = v_rj > 0 of dirs[r] (-v_rj of -dirs[r] for row n + r), the end
    that constraint alone sets.  Otherwise, and on the float64 products,
    whose chords are exact, cuts is None.

    The products go in blocks of at most `budget` bytes (_BLOCK_BYTES by
    default).  `y32`, a float32 array of at least k q entries, receives the
    float32 copy of the scaled normals when that product runs, so a caller
    can reuse one buffer across calls; its values do not matter.

    With an (R, k, q) stack of normals the chords are those of dirs against
    each set in turn, 2 R n entries: entry s n + r < R n is the chord of
    dirs[r] against set s, entry R n + s n + r that of -dirs[r].
    """
    sets = normals if normals.ndim == 3 else normals[None]
    R, k = sets.shape[:2]
    n = R * dirs.shape[0]  # chords per half
    lo = np.zeros(2 * n)
    hi = np.full(2 * n, math.inf)
    found = None
    if k == 0 or n == 0:
        return lo, hi, found
    slack = offsets - base
    up = slack > 0.0
    empty = np.zeros(2 * n, dtype=bool)
    ends = [hi]  # the ends to divide by the radii
    if not up.all():
        t = np.concatenate([dirs @ x[~up].T for x in sets])
        t = np.concatenate([t, -t])
        c = slack[~up]
        neg = c < 0.0
        empty = np.any(t > 0.0, axis=1) | np.any(neg & (t == 0.0), axis=1)
        if neg.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = np.maximum(np.max(c[neg] / t[:, neg], axis=1), 0.0)
            ends.append(lo)
    if up.any():
        # 1 / c_j on the upper constraints; a zero row never lowers hi
        inv = np.divide(1.0, slack, out=np.zeros_like(slack), where=up)
        budget = _BLOCK_BYTES if budget is None else budget
        top_v = None
        if filtered(R, k, dirs.shape[1]):
            top_v, found = _window_cuts(dirs, sets[0], inv, budget, y32, top,
                                        radii, cuts)
        if top_v is None:
            top_v = _row_extremes(dirs, sets, inv, budget)
        hi = np.divide(1.0, top_v, out=hi, where=top_v > 0.0)
    empty |= ~(lo < hi)
    lo[empty] = 0.0
    hi[empty] = 0.0
    for e in ends:  # the chord of rho a is the chord of a over rho
        np.divide(e.reshape(2, R, -1), radii, out=e.reshape(2, R, -1))
    return lo, hi, found


def filtered(R, k, q):
    """Whether `facet_chords` takes the filtered float32 product for R sets
    of k normals with q coordinates (and can return cuts, unless that
    product could overflow)."""
    return R == 1 and q >= _FLOAT32_MIN_D and k >= _FLOAT32_MIN_K


def _row_extremes(dirs, sets, inv, budget):
    """M_r of every row of the module docstring, by the float64 product:
    max_j inv[j] <dirs[r], sets[s, j]> per row r and set s, then the same
    for -dirs[r] (minus the minimum), 2 R n entries in `facet_chords`'
    order.  The product goes in blocks of rows of at most `budget` bytes,
    each block holding every constraint of its rows."""
    n, d = dirs.shape
    R, k = sets.shape[:2]
    # filled in place: a result built after the loop would be allocated
    # while the product buffer is still held
    top, bottom = extremes = np.empty((2, R, n))
    rows = sets.reshape(R * k, d)
    # a multiple of 8 rows where the budget allows: OpenBLAS's x86 dgemm
    # tiles these columns by 8, and other block lengths move the last
    # bit of many more products off the unblocked product's (1177 rows
    # of 68 coordinates against 17 sets: 7638 of 1.4 million products
    # in blocks of 907 rows, 19 in blocks of 904)
    per_block = budget // (8 * R * k)
    blocks = _blocks(n, per_block - per_block % 8 or per_block)
    buf = np.empty(R * k * blocks[0].stop)
    for blk in blocks:
        t = buf[:R * k * (blk.stop - blk.start)].reshape(R * k, -1)
        np.matmul(rows, dirs[blk].T, out=t)
        t = t.reshape(R, k, -1)
        t *= inv[:, None]
        t.max(axis=1, out=top[:, blk])
        t.min(axis=1, out=bottom[:, blk])
    np.negative(bottom, out=bottom)
    return extremes.ravel()


def _window_cuts(dirs, normals, inv, budget, y32, top, radii, cuts):
    """(M, cuts) by the filtered float32 product of the module docstring,
    for the 2n rows of `facet_chords` and the `radii` of its n
    directions: M_r the largest cut v_rj of row r (-inf without one) and,
    when `cuts` is true, every cut as (rows, ends), else None; (None, None)
    when the float32 evaluation could overflow.  The product goes in
    blocks of rows of at most `budget` bytes, each block holding every
    constraint of its rows; the float32 normals go into `y32` when it is
    not None."""
    n, d = dirs.shape
    k = normals.shape[0]
    if y32 is None:
        y32 = np.empty(k * d, dtype=np.float32)
    y32 = y32[:k * d].reshape(k, d)
    np.copyto(y32, normals, casting="same_kind")
    margin = _chord_margins(dirs, y32, inv)
    if margin is None:
        return None, None
    y32 *= inv.astype(np.float32)[:, None]
    rho = np.broadcast_to(radii, (1, n)).ravel()
    # the float32 t >= x, for float64 x, is t >= _above32(x), and t <= -x
    # is -t >= _above32(x) (rounding to float32 is odd)
    floor = _above32(1.0 / (top * rho) * (1.0 - 8 * _U64) - margin)
    a32 = dirs.astype(np.float32)
    blocks = _blocks(n, budget // (4 * k))
    buf = np.empty(k * blocks[0].stop, dtype=np.float32)
    near = np.empty((2, k * blocks[0].stop), dtype=bool)
    found = []
    for blk in blocks:
        b = blk.stop - blk.start
        t = buf[:k * b].reshape(k, b)
        np.matmul(y32, a32[blk].T, out=t)
        up, down = (e[:k * b].reshape(k, b) for e in near)
        if cuts:  # both sides at once: the recheck gives each its sign
            np.greater_equal(np.abs(t, out=t), floor[blk], out=up)
        else:  # the entries that can hold the row's largest cut, each side
            lead = _above32(t.max(axis=0) - 2.0 * margin[blk])
            np.greater_equal(t, np.maximum(floor[blk], lead), out=up)
            lead = _above32(-t.min(axis=0) - 2.0 * margin[blk])
            np.less_equal(t, -np.maximum(floor[blk], lead), out=down)
            np.logical_or(up, down, out=up)
        j, r = np.divmod(np.flatnonzero(up), b)
        found.append((j, r + blk.start))
    j, r = (np.concatenate(e) for e in zip(*found))
    # the recheck reads the normals in order, each row once for all its
    # candidates
    order = np.argsort(j, kind="stable")
    j, r = j[order], r[order]
    v = np.empty(j.size)
    step = max(1, _RECHECK_ENTRIES // d)
    pair = np.empty((2, step, d))  # the gathered rows of a recheck step
    for i0 in range(0, j.size, step):
        sl = slice(i0, i0 + step)
        a, x = pair[:, :v[sl].size]
        np.take(dirs, r[sl], axis=0, out=a, mode="clip")
        np.take(normals, j[sl], axis=0, out=x, mode="clip")
        np.einsum("ij,ij->i", a, x, out=v[sl])
    v *= inv[j]
    with np.errstate(divide="ignore"):
        ends = (1.0 / np.abs(v)) / rho[r]
    inside = ends < top
    up, down = inside & (v > 0.0), inside & (v < 0.0)
    rows = np.concatenate([r[up], r[down] + n])
    M = np.full(2 * n, -np.inf)
    np.maximum.at(M, rows, np.concatenate([v[up], -v[down]]))
    if not cuts:
        return M, None
    return M, (rows, np.concatenate([ends[up], ends[down]]))


def _blocks(count, step):
    """Slices of range(count) of length max(1, step)."""
    step = max(1, step)
    return [slice(i0, min(i0 + step, count)) for i0 in range(0, count, step)]


def _chord_margins(dirs, x32, inv):
    """The per-row margin m_r of the module docstring, from the float32
    copy x32 of the normals; None when the float32 evaluation could
    overflow."""
    d = dirs.shape[1]
    a = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
    n32 = np.sqrt(np.einsum("ij,ij->i", x32, x32)).astype(float)
    x = n32 * (1.0 + _gamma(d + 3, _U32)) + math.sqrt(d) * 2.0 ** -74
    Y = float((x * inv).max())
    P = (1.0 + a.max()) * (1.0 + x.max()) * (1.0 + inv.max())
    if not (P <= _SAFE and d * _U32 < 0.5):
        return None
    alpha = 2.0 * (_gamma(d, _U32) + 12 * _U32 + _gamma(d + 1, _U64)) * Y
    return alpha * a + 10 * d * _ETA * P


def _above32(x):
    """float32 values no smaller than the float64 values x."""
    x32 = x.astype(np.float32)
    return np.where(x32 < x, np.nextafter(x32, np.float32(np.inf)), x32)


def facet_accept_count(dirs, scales, normals, base, offsets):
    """Count samples y_k = anchor + scales[k] * dirs[k] satisfying every
    constraint  base[j] + scales[k] * <dirs[k], normals[j]> <= offsets[j],
    by that float64 expression over blocks of the constraints.  Unused by
    the package, which scores chords (`facet_chords`); the benchmark traces
    it by name.
    """
    n = dirs.shape[0]
    keep = np.ones(n, dtype=bool)
    for blk in _blocks(normals.shape[0], _BLOCK_BYTES // max(8 * n, 1)):
        t = dirs @ normals[blk].T
        keep &= np.all(base[blk] + scales[:, None] * t <= offsets[blk], axis=1)
    return int(np.count_nonzero(keep))


def shell_count(v, eps):
    """How many violations v lie in the shell (0, eps]."""
    return int(np.count_nonzero((v > 0.0) & (v <= eps)))


def polytope_shell_counts(pts, normals, offsets, eps):
    """How many points have their largest violation of the constraints
    <x, normals[j]> <= offsets[j] in (0, eps]: inside the offset-relaxed
    polytope but outside the polytope itself."""
    return shell_count((pts @ normals.T - offsets[None, :]).max(axis=1), eps)
