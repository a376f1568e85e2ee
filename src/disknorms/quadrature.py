"""Polar quadrature on the unit disk with normalized area measure.

The plain rule is a tensor product of Gauss-Kronrod rings in radius against
a uniform trapezoid in angle.  Singular integrals g(w) |w - b|^{-s} get one
of two dedicated strategies, each of which supplies the factor |w - b|^{-s}
in its own coordinates, so that no caller forms w - b by subtraction: a
Mobius change of variables that flattens the singularity exactly, or
exclusion of a small ball around b followed by Richardson extrapolation in
the exclusion radius.  Every rule shares one ring sum (``_polar_sum``) and
one radial rule (``_nested``); the annulus grid, centered at the singular
point, sums each of its radial ranges through them too.

The nested rule's radial nodes are the (2m+1)-node Gauss-Kronrod rule, m =
(radial_nodes - 1)//2 (255 rings for the default 256), which holds the
m-node Gauss rule at its odd positions (``_kronrod01``), and every ring
count is rounded up to even, so that every other angle of a ring is the
trapezoid rule at half the count.  One set of field values gives the value,
the Kronrod rings at all angles, and both halves of its estimate: the
distance to the Gauss rings and the distance to the Kronrod rings at every
other angle, summed so that a radial and an angular error cannot cancel.
The rule is exact to degree 3m+1 in r.  Both radial rules come from their
Jacobi matrices: Gauss nodes are eigenvalues polished by a Newton step,
Kronrod's matrix is Laurie's, every weight a Christoffel number (``_christoffel``).

A rule sized for a point z near the boundary (``DiskRule.for_point``) has
the angular count of its outermost ring, where the kernel's boundary layer
is thinnest; the tensor and Mobius sums, which are given z, refuse a rule
with fewer angles than that (``_check_angles``).  Inner rings get their own
layer's count instead: the trapezoid rule on a ring of radius r aliases a
Fourier mode m with weight r^|m|, so a ring needs only about 64/log(1/r)
angles (capped by the rule's count, and never fewer than the default 512)
to push that weight below e^-64 (Trefethen & Weideman, SIAM Review 2014).
Rules for |z| <= 0.9 keep the full count on every ring.  Fields are
evaluated once per block of consecutive rings with equal counts, at most
2^13 nodes per call, so memory stays bounded at any distance from the
boundary.

Near the boundary almost every ring has its own count and so its own table
of unit-circle nodes.  A table of more than 512 nodes is a coarse x fine
product of about 2 sqrt(L) exponentials for L nodes, each taken at an angle
reduced to [-pi/4, pi/4] (``_angles``); tables of up to 512 nodes are
np.exp's own.  The Mobius sum gives the field its nodes w and multiplies the
values by a weight in the rule's coordinates: ``integrate_disk_singular``
passes c^(2-s) |D|^(s-4), with c = 1 - |b|^2 and D = 1 - conj(b) a, and
``apply`` passes the closed-form kernel times Jacobian of cauchy and cdelta.
The estimates' rounding floor, 8 eps times the integral of |integrand|,
weights each tensor ring by the conditioning (1 + r|z|)/(1 - r|z|) of the
kernels (1 - conj(w) z)^-k at z, exactly 1 at z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError
from .specfun import _EPS

FieldFn = Callable[[complex], complex]

DEFAULT_RADIAL = 256
DEFAULT_ANGULAR = 512
# points within this radius have no boundary layer to resolve
_LAYER_FREE = 0.9
# each ring's trapezoid aliasing weight is kept below e^-_LAYER_DECAY
_LAYER_DECAY = 64.0
# field nodes per call of the integrand
_BLOCK = 1 << 13
# _kronrod01 builds a dense Jacobi matrix of about radial_nodes^2 entries
_MAX_RADIAL = 2048
# least radial nodes of an annulus shell: its 15 Kronrod rings integrate
# e^(au) over a log-10 shell to a few eps for a <= 8, a field of degree 6
# along a ray at s = 0
_SHELL_NODES = 16


@dataclass(frozen=True)
class AnnulusExclude:
    """Integrate over the disk minus a ball of radius epsilon around the center."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ConfigurationError(
                f"exclusion radius must lie in (0, 0.5), got {self.epsilon}"
            )


@dataclass(frozen=True)
class Mobius:
    """Pull the integrand back through the disk automorphism that sends 0 to
    the singular point the sum is given."""


@dataclass(frozen=True)
class DiskRule:
    """Node counts of a polar rule and its singularity strategy.

    Every strategy sums on the 2m+1 Gauss-Kronrod rings that extend the
    m-node Gauss rule, m = (radial_nodes - 1)//2, with every ring count
    rounded up to even; annulus exclusion sums each radial range on such
    rings, its shells on fewer.  angular_nodes is the outermost ring's
    count; rules sized for a point past |z| = 0.9 give inner rings fewer.
    radial_nodes is 8 to 2048.
    """

    radial_nodes: int = DEFAULT_RADIAL
    angular_nodes: int = DEFAULT_ANGULAR
    singularity: AnnulusExclude | Mobius | None = None

    def __post_init__(self):
        for name in ("radial_nodes", "angular_nodes"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 8 <= self.radial_nodes <= _MAX_RADIAL:
            bound = ">= 8" if self.radial_nodes < 8 else f"<= {_MAX_RADIAL}"
            raise ConfigurationError(f"radial_nodes must be {bound}, got {self.radial_nodes}")
        if self.angular_nodes < 16:
            raise ConfigurationError(
                f"angular_nodes must be >= 16, got {self.angular_nodes}"
            )

    @classmethod
    def for_point(cls, z: complex, singular: bool = False) -> "DiskRule":
        """The default rule widened for kernels at z, with a Mobius strategy if singular.

        The angular count is the outermost ring's; when |z| > 0.9 the sums
        that are given z give each inner ring its own layer's count.  Other
        counts come from ``dataclasses.replace`` on the returned rule.
        """
        angular = max(DEFAULT_ANGULAR, _required_angular_nodes(z))
        return cls(DEFAULT_RADIAL, angular, Mobius() if singular else None)


@dataclass(frozen=True)
class Integral:
    value: complex
    abs_error_estimate: float


def _required_angular_nodes(z: complex) -> int:
    """Angular nodes the outermost ring needs for kernels evaluated at z.

    Kernels like 1/(1 - conj(w) z) concentrate in an angular layer of width
    ~(1-|z|) near the boundary.  Inner rings of radius r need fewer: they
    get their own layer's count, see ``_ring_counts``.
    """
    r = abs(z)
    if r <= _LAYER_FREE:
        return 16
    if not r < 1.0:
        raise DomainError(f"no angular count resolves the layer of a point on the unit circle or past it, |z| = {r:g}")
    return max(16, int(math.ceil(_LAYER_DECAY / (1.0 - r))))


def _check_angles(rule: DiskRule, z: complex) -> None:
    """Refuse a rule whose outermost ring has fewer angles than z's layer needs."""
    need = _required_angular_nodes(z)
    if rule.angular_nodes < need:
        raise ConfigurationError(
            f"rule has {rule.angular_nodes} angular nodes but |z| = {abs(z):.6g} "
            f"requires at least {need}"
        )


def _ring_counts(r: np.ndarray, na: int, z: complex) -> np.ndarray:
    """Angular nodes on rings of radius r, for a rule of na angles sized for z.

    Ring r aliases Fourier mode m with weight r^|m| (the kernel's own modes
    decay faster, like (r|z|)^|m|), so n >= 64/log(1/r) angles keep that
    weight below e^-64; the count is capped by na, and never falls below
    the default rule's.  Every ring keeps na when |z| <= 0.9.
    """
    if abs(z) <= _LAYER_FREE:
        return np.full(r.size, na)
    with np.errstate(divide="ignore"):
        need = np.ceil(_LAYER_DECAY / np.log(1.0 / r))
    return np.minimum(na, np.maximum(min(na, DEFAULT_ANGULAR), need)).astype(int)


def _christoffel(x: np.ndarray, root_b: np.ndarray) -> np.ndarray:
    """The Christoffel numbers 1/sum_{k<m} p_k(x)^2 at x, m = len(root_b), of the orthonormal
    recurrence of the Jacobi matrix with diagonal 1/2 and off-diagonal root_b[1:]:
    root_b[k+1] p_{k+1} = (x - 1/2) p_k - root_b[k] p_{k-1}, p_0 = 1/root_b[0]."""
    prev, p = 0.0, np.full(len(x), 1.0 / root_b[0])
    norm = p * p
    for i in range(len(root_b) - 1):
        prev, p = p, ((x - 0.5) * p - root_b[i] * prev) / root_b[i + 1]
        norm += p * p
    return 1.0 / norm


@lru_cache(maxsize=64)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [0, 1], from its Jacobi matrix, b_k = k^2/(4(4k^2-1)), b_0 = 1.

    The nodes are its eigenvalues, each moved by one Newton step on p_n of
    ``_christoffel``'s recurrence (root_b[n] = 1 moves no zero); the weights
    are its Christoffel numbers, mirrored past 1/2: a node near 1 is stored
    within eps/2, which its weight amplifies (2e-12 relative at n = 256).
    """
    k = np.arange(n, dtype=float)
    root_b = np.sqrt(np.where(k > 0, k * k / (4.0 * (4.0 * k * k - 1.0)), 1.0))
    x = np.linalg.eigvalsh(np.diag(np.full(n, 0.5)) + np.diag(root_b[1:], -1))
    y, prev, p, dprev, dp = x - 0.5, 0.0, 1.0 / root_b[0], 0.0, 0.0
    for i, c in enumerate(np.append(root_b[1:], 1.0)):
        prev, p, dprev, dp = p, (y * p - root_b[i] * prev) / c, dp, (p + y * dp - root_b[i] * dprev) / c
    x -= p / dp
    w = _christoffel(x, root_b)
    w[::-1][: n // 2] = w[: n // 2]
    return x, w


def _laurie_b(n: int) -> list:
    """Recurrence coefficients b_0..b_2n of the (2n+1)-node Kronrod rule on [0, 1].

    Laurie's algorithm (Math. Comp. 66, 1997) on Python floats; the weight is
    symmetric, so only its b-updates remain.  Its sums shrink by about 16 a
    step, so each step scales what later steps read by a power of two.
    """
    b = [k * k / (4.0 * (4.0 * k * k - 1.0)) for k in map(float, range(1, -(-3 * n // 2) + 1))]
    b = [1.0] + b + [0.0] * (2 * n - len(b))
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for j in range((m + 1) // 2, -1, -1):
            u += b[j + n + 1] * s[j] - b[m - j] * s[j + 1]
            s[j + 1] = u
        scale = 2.0 ** -math.frexp(max(map(abs, s)))[1]
        s, t = t, [v * scale for v in s]
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for i in range((m - 1) // 2 + n - m):
            u += b[n - 1 - i] * s[i + 2] - b[i + m + 2] * s[i + 1]
            s[i + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[i + 1] / s[i + 2]
        scale = 2.0 ** -math.frexp(max(map(abs, s[: i + 3])))[1]
        s[: i + 3] = [v * scale for v in s[: i + 3]]
        s, t = t, s
    return b


@lru_cache(maxsize=64)
def _kronrod01(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-node Gauss-Kronrod rule on [0, 1] that extends ``_gauss01(n)``.

    Returns the nodes, the Kronrod weights, and the Gauss weights at the
    odd positions (zeros elsewhere), exact to degree 3n+1.  The nodes are
    the eigenvalues of the Jacobi matrix of ``_laurie_b``, the Gauss nodes
    at the odd positions; the weights are ``_christoffel``'s.
    """
    gauss_x, gauss_w = _gauss01(n)
    root_b = np.sqrt(_laurie_b(n))
    x = np.linalg.eigvalsh(np.diag(np.full(2 * n + 1, 0.5)) + np.diag(root_b[1:], -1))
    x[1::2] = gauss_x
    wg = np.zeros(2 * n + 1)
    wg[1::2] = gauss_w
    return x, _christoffel(x, root_b), wg


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _angles(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Unit-circle trapezoid nodes lo..hi-1 of n.

    Past n = 512 the L = hi - lo nodes are a coarse x fine product,
    e^{2 pi i k/n} = e^{2 pi i q m/n} e^{2 pi i j/n} for k = q m + j, j < m,
    m = isqrt(L): about 2 sqrt(L) exponentials instead of L.  Each factor's
    angle is reduced to |2 pi k/n - t pi/2| <= pi/4 and turned back by the
    exact i^t, which keeps every node within about eps of e^{2 pi i k/n}.
    """
    hi = n if hi is None else hi
    if n <= DEFAULT_ANGULAR:
        return np.exp(2j * math.pi * np.arange(lo, hi) / n)
    m = math.isqrt(hi - lo)
    q0, q1 = lo // m, -(-hi // m)
    k = np.concatenate([np.arange(m), m * np.arange(q0, q1)])
    t = (4 * k + n // 2) // n
    table = np.exp((0.5j * math.pi / n) * (4 * k - t * n)) * _QUARTER_TURNS[t % 4]
    fine, coarse = table[:m], table[m:]
    return (coarse[:, None] * fine).ravel()[lo - q0 * m : hi - q0 * m]


def _ring_blocks(counts: np.ndarray):
    """Blocks (rings, n, angles) of at most _BLOCK nodes covering a rule.

    Consecutive rings with equal counts n share a block.  Rings with more
    than _BLOCK angles are cut into angular chunks, taken chunk by chunk
    across each run of equal rings so that neighbouring blocks share angles.
    """
    i, nr = 0, len(counts)
    while i < nr:
        n = int(counts[i])
        j = i + 1
        while j < nr and counts[j] == n:
            j += 1
        if n > _BLOCK:
            for lo in range(0, n, _BLOCK):
                for k in range(i, j):
                    yield slice(k, k + 1), n, slice(lo, min(n, lo + _BLOCK))
        else:
            step = _BLOCK // n
            for k in range(i, j, step):
                yield slice(k, min(j, k + step)), n, slice(0, n)
        i = j


def _polar_sum(block: Callable, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-ring sums of block over each ring's angles: over all of them, over
    the even-numbered ones, and of |block|.

    block(rings, phase) returns the integrand on those rings at the block's
    unit-circle nodes phase, as a (rings, angles) array.  Counts are even;
    chunks start at multiples of _BLOCK, so a chunk's even columns are its
    ring's even angles.
    """
    sums = np.zeros(len(counts), dtype=complex)
    evens = np.zeros(len(counts), dtype=complex)
    abs_sums = np.zeros(len(counts))
    key = None
    for rings, n, cols in _ring_blocks(counts):
        if key != (n, cols.start):
            key, phase = (n, cols.start), _angles(n, cols.start, cols.stop)
        vals = block(rings, phase)
        sums[rings] += vals.sum(axis=1)
        evens[rings] += vals[:, ::2].sum(axis=1)
        abs_sums[rings] += np.abs(vals).sum(axis=1)
    return sums, evens, abs_sums


# A rule's rings: given radial nodes t on [0, 1] and an angular count, the
# block function, the per-ring angular counts, and per-ring factors scale and
# cond, so that the integral is sum_i w_i scale_i (ring mean i) and ring i's
# share of the rounding floor carries the conditioning cond_i.
Rings = Callable[[np.ndarray, int], tuple]


def _nested(rings: Rings, rule: DiskRule) -> Integral:
    """The nested rule: Kronrod rings, every field value used three times.

    The radial rule is the (2m+1)-node Gauss-Kronrod rule, m =
    (radial_nodes - 1)//2, and ring counts are rounded up to even.  The
    value K is the Kronrod rings at all angles; the estimate is |K - G| +
    |K - K_half| + 8 eps * integral |f|, where G is the m Gauss rings at all
    angles and K_half the Kronrod rings at every other angle.  Summing the
    radial and the angular difference keeps the two from cancelling.
    """
    t, wk, wg = _kronrod01((rule.radial_nodes - 1) // 2)
    block, counts, scale, cond = rings(t, rule.angular_nodes)
    counts = counts + counts % 2
    sums, evens, abs_sums = _polar_sum(block, counts)
    means = sums / counts
    kronrod = np.dot(wk * scale, means)
    gauss = np.dot(wg * scale, means)
    kronrod_half = np.dot(wk * scale, 2.0 * evens / counts)
    floor = np.dot(wk * scale * cond, abs_sums / counts)
    estimate = abs(kronrod - gauss) + abs(kronrod - kronrod_half) + 8.0 * _EPS * floor
    return Integral(complex(kronrod), float(estimate))


def _eval_nodes(f: FieldFn, w: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of nodes, vectorized when f permits.

    f sees the nodes as flat arrays of at most _BLOCK consecutive nodes, one
    call each; the values come back in w's shape.  A call that does not
    vectorize gives its nodes to f one at a time, a float on a real grid.
    """
    shape = w.shape
    w = w.ravel()
    vals = np.empty(w.shape, dtype=complex)
    for lo in range(0, w.size, _BLOCK):
        block, out = w[lo : lo + _BLOCK], vals[lo : lo + _BLOCK]
        try:
            candidate = np.asarray(f(block))
            vectorized = candidate.shape == block.shape
            if vectorized:
                out[:] = candidate
        except Exception:
            vectorized = False
        if not vectorized:
            for i, wi in enumerate(block):
                try:
                    out[i] = complex(f(wi.item()))
                except Exception as exc:
                    raise EvaluationError(
                        f"integrand raised at node {complex(wi):.8g}: {exc}"
                    ) from exc
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(f"integrand not finite at node {complex(w[i]):.8g}")
    return vals.reshape(shape)


def _tensor_integral(f: FieldFn, rule: DiskRule, z: complex) -> Integral:
    """Tensor-product integral of f with rings sized for kernels at z.

    Kernels (1 - conj(w) z)^-k, k <= 2, amplify the rounding of the nodes
    by k|conj(w) z|/|1 - conj(w) z| <= (1 + r|z|)/(1 - r|z|) on the ring of
    radius r, so each ring's share of the rounding floor carries that factor
    (exactly 1 at z = 0).  A rule with a singularity strategy, or with
    fewer angles than z's layer needs, is refused.
    """
    if rule.singularity is not None:
        raise ConfigurationError("the tensor rule takes no singularity strategy; use integrate_disk_singular")
    _check_angles(rule, z)

    def rings(r: np.ndarray, na: int) -> tuple:
        # int f dA = sum_i 2 w_i r_i * (mean over angles of f(r_i e^{i theta}))
        def block(rings, phase):
            return _eval_nodes(f, r[rings, None] * phase)

        rz = r * abs(z)
        return block, _ring_counts(r, na, z), 2.0 * r, (1.0 + rz) / (1.0 - rz)

    return _nested(rings, rule)


def integrate_disk(f: FieldFn, rule: DiskRule) -> Integral:
    """Tensor-product polar integral of f over the disk against dA.

    The rule is exact to degree 3m+1 in r, m = (radial_nodes - 1)//2, and
    every ring carries the rule's angular count rounded up to even.  The
    error estimate is the distance to the m-node Gauss rings plus the
    distance to every other angle, plus a roundoff floor; it is meaningful
    for integrands the rule resolves, and a loud red flag otherwise.  A
    rule with a singularity strategy raises ``ConfigurationError``.
    """
    return _tensor_integral(f, rule, 0.0)


def _unit_gap(z: complex) -> float:
    """1 - |z|^2, summed exactly from the integer ratios of z's parts and
    rounded once; 1 - abs(z)**2 carries a relative error of about
    eps/(1 - |z|)."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(xd, yd)  # both are powers of two
    return (d * d - (xn * (d // xd)) ** 2 - (yn * (d // yd)) ** 2) / (d * d)


def _mobius_integral(f: FieldFn, b: complex, s: float, rule: DiskRule, weigh: Callable) -> Integral:
    """The Mobius rule's integral of f times weigh's factor, singular at b.

    w = (b - a)/(1 - conj(b) a) sends a = 0 to the singular point; the
    Jacobian is (1-|b|^2)^2/|1 - conj(b) a|^4.  In polar a-coordinates the
    radial weight becomes r^{1-s}, which the substitution r = t^{1/(2-s)}
    turns into the constant 2/(2-s).  The integrand's layer sits at
    a = 1/conj(b), so each ring of a-radius r gets its own count just as
    in the tensor rule.  weigh(f(w), r, phase, 1 - conj(b) a) multiplies
    the field values by the rest of the integrand, Jacobian and r^s.

    Along the ray through b, |D|^-4 (D = 1 - conj(b) a, which bounds each
    caller's weight) peaks at r = 1; past |b| (1 - r_out) > (2^(1/4) - 1)
    (1 - |b|) it has more than doubled beyond the outermost ring r_out =
    t_out^(1/(2-s)), value and estimate miss the layer together (err/est 3
    to 9 at 1 - |b| = 1e-6), and the sum raises ``DomainError`` before any
    field evaluation: 1 - |b| < 7.8e-5 for 256 radial nodes at s = 1.  A
    rule whose outermost ring has fewer angles than b's layer needs
    (``_required_angular_nodes``) raises ``ConfigurationError`` first.
    """
    _check_angles(rule, b)
    beta = 1.0 / (2.0 - s)
    gap, reach = 1.0 - _kronrod01((rule.radial_nodes - 1) // 2)[0][-1] ** beta, 2.0**0.25 - 1.0
    if abs(b) * gap > reach * (1.0 - abs(b)):
        raise DomainError(
            f"a Mobius rule of {rule.radial_nodes} radial nodes at s = {s:g} reaches "
            f"1 - |b| >= {gap / (reach + gap):.3g}; got |b| = {abs(b):.15g}"
        )

    def rings(t: np.ndarray, na: int) -> tuple:
        r = np.array([ti**beta for ti in t])

        def block(rings, phase):
            a = r[rings, None] * phase
            denom = 1.0 - b.conjugate() * a
            return weigh(_eval_nodes(f, (b - a) / denom), r[rings, None], phase, denom)

        return block, _ring_counts(r, na, b), 2.0 * beta, 1.0

    return _nested(rings, rule)


def _annulus_stages(
    g: FieldFn, b: complex, s: float, epsilons: Sequence[float], rule: DiskRule
) -> list[Integral]:
    """Integral of g(w) |w - b|^-s over the disk minus the ball of radius e
    around b, for each e of the decreasing epsilons.

    Polar coordinates around b: the disk boundary sits at rho_max(theta) =
    -c + sqrt(c^2 + 1 - |b|^2), c = Re(conj(b) e^{i theta}), and each radial
    range is one nested rule (``_nested``) in log-radius, where the area
    element and the singular factor are rho^(2-s) d(log rho) d(theta).
    [e_0, rho_max] is summed once, on radial_nodes, and each shell [e_k,
    min(e_(k-1), rho_max)] on ceil(radial_nodes log(e_(k-1)/e_k) /
    log(2/e_0)) nodes, at least _SHELL_NODES and at most radial_nodes: the
    disk lies within 2 of b, so no shell is sampled more coarsely in
    log-radius than the first range at its widest angle.  The k-th result
    adds shells 1..k to the first range, values and estimates alike.  g is
    never evaluated where a range is empty: at |b| = 1 such nodes lie
    outside the disk.
    """
    nr = rule.radial_nodes
    widest = math.log(2.0 / epsilons[0])
    ranges = [(epsilons[0], math.inf, nr)] + [
        (lo, hi, min(nr, max(_SHELL_NODES, math.ceil(nr * math.log(hi / lo) / widest))))
        for hi, lo in zip(epsilons, epsilons[1:])
    ]
    gap = 1.0 - abs(b) ** 2
    stages = []
    for lo, hi, n in ranges:

        def rings(t: np.ndarray, na: int, lo=lo, hi=hi) -> tuple:
            # int = (1/pi) int dtheta int_0^1 span rho^(2-s) g dt, rho = lo e^(t span);
            # memo: the last angles, those from the first with a nonempty range
            # (down to an even column) to the last, and their runs (i, j, span)
            memo = [None]

            def block(rings, phase):
                if memo[0] is not phase:
                    c = (b.conjugate() * phase).real
                    rho_max = -c + np.sqrt(np.maximum(c * c + gap, 0.0))
                    active = np.concatenate(([False], rho_max > lo, [False]))
                    edges = np.flatnonzero(active[1:] != active[:-1]).reshape(-1, 2)
                    first, last = (edges[0, 0] // 2 * 2, edges[-1, 1]) if edges.size else (0, 0)
                    runs = [(i - first, j - first, np.log(np.minimum(rho_max[i:j], hi) / lo)) for i, j in edges]
                    memo[:] = phase, phase[first:last], runs
                # zero columns outside the memo's angles are left out; the first
                # is even, so even columns stay even angles
                _, angles, runs = memo
                vals = np.zeros((rings.stop - rings.start, angles.size), dtype=complex)
                for i, j, span in runs:
                    rho = lo * np.exp(t[rings, None] * span)
                    np.multiply(_eval_nodes(g, b + rho * angles[i:j]), span * rho ** (2.0 - s), out=vals[:, i:j])
                return vals

            return block, np.full(t.size, na), 2.0, 1.0

        part = _nested(rings, replace(rule, radial_nodes=n))
        if stages:
            part = Integral(stages[-1].value + part.value, stages[-1].abs_error_estimate + part.abs_error_estimate)
        stages.append(part)
    return stages


def integrate_disk_singular(
    g: FieldFn, b: complex, s: float, rule: DiskRule
) -> Integral:
    """Integral of g(w) |w - b|^{-s} over the disk, s in (0, 2).

    The rule supplies the singular factor in its own coordinates, and its
    strategy picks the method.  Mobius substitution at b flattens the
    singularity exactly: each node weighs g by c^(2-s) |D|^(s-4), c = 1 -
    |b|^2, D = 1 - conj(b) a, on the nested rule.  Its outermost ring must
    carry the angles of b's boundary layer, as in ``DiskRule.for_point(b)``;
    fewer raise ``ConfigurationError`` before any field evaluation.
    Annulus exclusion at epsilon, epsilon/2, epsilon/4 applies two-stage
    Richardson extrapolation on the expansion exponents 2-s and 4-s, which
    hold for a g smooth at b.  The stages share the nested sum outside
    epsilon and add the two shells down to epsilon/4 on their own shorter
    nested rules (``_annulus_stages``).  The estimate is the last
    extrapolation step plus A times the last stage's estimate, where A =
    (1 + r1)(1 + r2)/((1 - r1)(1 - r2)), r1 = 2^(s-2), r2 = 2^(s-4), is
    the absolute sum of the Richardson weights: each stage's estimate adds
    to the one before, so the last bounds them all.  The exponents are
    checked on the stage ratio (t1 - t0)/(t2 - t1), which is 1/r1 when the
    first leads: if the differences stand 100 times above the last stage's
    estimate and the ratio is further than 3/5 of 1/r1 from it, the 4-s
    term would carry more of t1 - t0 than the 2-s term, and the estimate
    is widened by |t2 - t1|, which covers any single exponent at or above
    2-s.  A g whose angular factor cancels the 2-s term, such as f(w) |w -
    b|/(w - b) at s = 1, has ratio 4, not 2.
    """
    if not 0.0 < s < 2.0:
        raise DomainError(f"singularity exponent s = {s:g} is not integrable")
    b = complex(b)
    if not abs(b) <= 1.0:
        raise DomainError(f"singular point must lie in the closed disk, |b| = {abs(b):g}")
    sing = rule.singularity
    if sing is None:
        raise ConfigurationError(
            "integrate_disk_singular requires a rule with a singularity strategy"
        )
    if isinstance(sing, Mobius):
        gap = _unit_gap(b) ** (2.0 - s)

        def substitution(vals, r, phase, denom):
            d2 = denom.real**2 + denom.imag**2
            return vals * (gap * d2 ** (0.5 * s - 2.0))

        return _mobius_integral(g, b, s, rule, substitution)
    # annulus exclusion
    eps = sing.epsilon
    if eps >= 1.0 - abs(b):
        raise ConfigurationError(
            f"excluded ball of radius {eps:g} does not fit inside the disk "
            f"around b with |b| = {abs(b):g}"
        )
    stages = _annulus_stages(g, b, s, (eps, eps / 2.0, eps / 4.0), rule)
    t0, t1, t2 = (stage.value for stage in stages)
    r1, r2 = 2.0 ** (s - 2.0), 2.0 ** (s - 4.0)
    first = [(t1 - r1 * t0) / (1.0 - r1), (t2 - r1 * t1) / (1.0 - r1)]
    value = (first[1] - r2 * first[0]) / (1.0 - r2)
    amplification = (1.0 + r1) * (1.0 + r2) / ((1.0 - r1) * (1.0 - r2))
    estimate = abs(value - first[1]) + amplification * stages[-1].abs_error_estimate
    d1, d2 = t1 - t0, t2 - t1
    if abs(d2) > 100.0 * stages[-1].abs_error_estimate and abs(r1 * d1 - d2) > 0.6 * abs(d2):
        estimate += abs(d2)
    return Integral(value, estimate)


def truncated_singular_integral(
    f: FieldFn,
    b: complex,
    epsilon_list: Sequence[float],
    rule: DiskRule | None = None,
) -> list[float]:
    """Mass of |f| over the disk minus shrinking balls around b.

    Returns the truncated integrals for each epsilon; no extrapolation is
    performed, so a non-integrable singularity shows up as values that keep
    climbing as epsilon falls.  b may sit on the boundary.  The disk outside
    the largest epsilon is summed once on the rule's nested rings, and each
    shell between consecutive epsilons on its own shorter nested rule
    (``_annulus_stages``); the values are the stages' integrals of |f|.
    The rule gives node counts only: one with a singularity strategy
    raises ``ConfigurationError``.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps:
        raise DomainError("epsilon_list must be nonempty")
    if any(not 0.0 < e < 0.5 for e in eps):
        raise DomainError("all epsilons must lie in (0, 0.5)")
    if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
        raise DomainError("epsilons must be strictly decreasing")
    b = complex(b)
    if not abs(b) <= 1.0 + 1e-12:
        raise DomainError(f"truncation center must lie in the closed disk, |b| = {abs(b):g}")
    if rule is None:
        rule = DiskRule()
    if rule.singularity is not None:
        raise ConfigurationError("the truncation ladder takes no singularity strategy")
    return [stage.value.real for stage in _annulus_stages(lambda w: np.abs(f(w)), b, 0.0, eps, rule)]
