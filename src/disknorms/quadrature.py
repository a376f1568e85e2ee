"""Polar quadrature on the unit disk with normalized area measure.

The plain rule is a tensor product of Gauss-Legendre in radius against a
uniform trapezoid in angle.  Singular integrands get one of two dedicated
strategies: a Mobius change of variables that flattens an |w - b|^{-s}
singularity exactly, or exclusion of a small ball around b followed by
Richardson extrapolation in the exclusion radius.

A rule sized for a point z near the boundary (``DiskRule.for_point``) has
the angular count of its outermost ring, where the kernel's boundary layer
is thinnest.  Inner rings get their own layer's count instead: the trapezoid
rule on a ring of radius r aliases a Fourier mode m with weight r^|m|, so a
ring needs only about 64/log(1/r) angles (capped by the rule's count, and
never fewer than the default 512) to push that weight below e^-64
(Trefethen & Weideman, SIAM Review 2014).  Rules for |z| <= 0.9 keep the
full count on every ring.  Fields are evaluated once per block of
consecutive rings with equal counts, at most 2^13 nodes per call, so memory
stays bounded at any distance from the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError

FieldFn = Callable[[complex], complex]

DEFAULT_RADIAL = 256
DEFAULT_ANGULAR = 512
_EPS = 2.220446049250313e-16
# points within this radius have no boundary layer to resolve
_LAYER_FREE = 0.9
# each ring's trapezoid aliasing weight is kept below e^-_LAYER_DECAY
_LAYER_DECAY = 64.0
# field nodes per call of the integrand
_BLOCK = 1 << 13


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
    """Pull the integrand back through the disk automorphism centered here."""

    center: complex

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        if abs(self.center) >= 1.0:
            raise ConfigurationError(
                f"Mobius center must be interior, got |center| = {abs(self.center):g}"
            )


@dataclass(frozen=True)
class DiskRule:
    radial_nodes: int = DEFAULT_RADIAL
    angular_nodes: int = DEFAULT_ANGULAR
    singularity: AnnulusExclude | Mobius | None = None

    def __post_init__(self):
        if self.radial_nodes < 8:
            raise ConfigurationError(
                f"radial_nodes must be >= 8, got {self.radial_nodes}"
            )
        if self.angular_nodes < 16:
            raise ConfigurationError(
                f"angular_nodes must be >= 16, got {self.angular_nodes}"
            )

    @classmethod
    def for_point(
        cls,
        z: complex,
        radial_nodes: int = DEFAULT_RADIAL,
        angular_nodes: int = DEFAULT_ANGULAR,
        singular: bool = False,
    ) -> "DiskRule":
        """Rule sized for kernels evaluated at z, resolving its boundary layer.

        The angular count is the outermost ring's; when |z| > 0.9 the sums
        that are given z give each inner ring its own layer's count.
        """
        angular = max(angular_nodes, required_angular_nodes(z))
        sing = Mobius(z) if singular else None
        return cls(radial_nodes, angular, sing)


@dataclass(frozen=True)
class Integral:
    value: complex
    abs_error_estimate: float


def required_angular_nodes(z: complex) -> int:
    """Angular nodes the outermost ring needs for kernels evaluated at z.

    Kernels like 1/(1 - conj(w) z) concentrate in an angular layer of width
    ~(1-|z|) near the boundary.  Inner rings of radius r need fewer: they
    get their own layer's count, see ``_ring_counts``.
    """
    r = abs(z)
    if r <= _LAYER_FREE:
        return 16
    return max(16, int(math.ceil(_LAYER_DECAY / (1.0 - r))))


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


@lru_cache(maxsize=64)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _angles(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Unit-circle trapezoid nodes lo..hi-1 of n."""
    return np.exp(2j * math.pi * np.arange(lo, n if hi is None else hi) / n)


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


def _ring_means(
    block: Callable[[slice, np.ndarray], np.ndarray], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ring means of block(rings, phase) and of its modulus.

    phase holds the block's unit-circle nodes; block returns the integrand on
    those rings as a (rings, angles) array.
    """
    sums = np.zeros(len(counts), dtype=complex)
    mags = np.zeros(len(counts))
    key = None
    for rings, n, cols in _ring_blocks(counts):
        if key != (n, cols.start):
            key, phase = (n, cols.start), _angles(n, cols.start, cols.stop)
        vals = block(rings, phase)
        sums[rings] += vals.sum(axis=1)
        mags[rings] += np.abs(vals).sum(axis=1)
    return sums / counts, mags / counts


def _eval_nodes(f: FieldFn, w: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of nodes, vectorized when f permits.

    f sees the nodes as one flat array; the values come back in w's shape.
    A scalar-only f gets one node at a time, a float on a real grid.
    """
    shape = w.shape
    w = w.ravel()
    vals = None
    try:
        candidate = np.asarray(f(w))
        if candidate.shape == w.shape:
            vals = candidate.astype(complex, copy=False)
    except Exception:
        vals = None
    if vals is None:
        vals = np.empty(w.shape, dtype=complex)
        for i, wi in enumerate(w):
            try:
                vals[i] = complex(f(wi.item()))
            except Exception as exc:
                raise EvaluationError(
                    f"integrand raised at node {complex(wi):.8g}: {exc}"
                ) from exc
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(f"integrand not finite at node {complex(w[i]):.8g}")
    return vals.reshape(shape)


def _tensor_sum(f: FieldFn, nr: int, na: int, z: complex) -> tuple[complex, float]:
    # int f dA = sum_i 2 w_i r_i * (mean over angles of f(r_i e^{i theta}))
    r, wr = _gauss01(nr)
    counts = _ring_counts(r, na, z)

    def block(rings, phase):
        return _eval_nodes(f, r[rings, None] * phase)

    means, abs_means = _ring_means(block, counts)
    total = 0.0 + 0.0j
    abs_total = 0.0
    for ri, wi, mean, abs_mean in zip(r, wr, means, abs_means):
        total += 2.0 * wi * ri * complex(mean)
        abs_total += 2.0 * wi * ri * float(abs_mean)
    return total, abs_total


def _tensor_integral(f: FieldFn, rule: DiskRule, z: complex) -> Integral:
    """Tensor-product integral of f with rings sized for kernels at z."""
    nr, na = rule.radial_nodes, rule.angular_nodes
    value, abs_value = _tensor_sum(f, nr, na, z)
    half, _ = _tensor_sum(f, max(nr // 2, 4), max(na // 2, 8), z)
    estimate = abs(value - half) + 8.0 * _EPS * abs_value
    return Integral(value, estimate)


def integrate_disk(f: FieldFn, rule: DiskRule) -> Integral:
    """Tensor-product polar integral of f over the disk against dA.

    The error estimate is the difference from the same integral at half the
    node counts, plus a roundoff floor; it is meaningful for integrands the
    rule resolves, and a loud red flag otherwise.  Every ring carries the
    rule's full angular count.
    """
    if rule.singularity is not None:
        raise ConfigurationError(
            "integrate_disk handles smooth integrands only; use "
            "integrate_disk_singular for rules with a singularity strategy"
        )
    return _tensor_integral(f, rule, 0.0)


def _mobius_sum(
    f: FieldFn, b: complex, s: float, nr: int, na: int
) -> tuple[complex, float]:
    # w = (b - a)/(1 - conj(b) a) sends a = 0 to the singular point; the
    # Jacobian is (1-|b|^2)^2/|1 - conj(b) a|^4.  In polar a-coordinates the
    # radial weight becomes r^{1-s}, which the substitution r = t^{1/(2-s)}
    # turns into the constant 2/(2-s).  The integrand's layer sits at
    # a = 1/conj(b), so each ring of a-radius r gets its own count just as
    # in the tensor rule.
    beta = 1.0 / (2.0 - s)
    t, wt = _gauss01(nr)
    r = np.array([ti**beta for ti in t])
    r_s = np.array([ri**s for ri in r])
    counts = _ring_counts(r, na, b)
    one_minus_b2 = 1.0 - abs(b) ** 2

    def block(rings, phase):
        a = r[rings, None] * phase
        denom = 1.0 - b.conjugate() * a
        w = (b - a) / denom
        jac = one_minus_b2**2 / np.abs(denom) ** 4
        return _eval_nodes(f, w) * jac * r_s[rings, None]

    means, abs_means = _ring_means(block, counts)
    total = 0.0 + 0.0j
    abs_total = 0.0
    for wi, mean, abs_mean in zip(wt, means, abs_means):
        total += 2.0 * beta * wi * complex(mean)
        abs_total += 2.0 * beta * wi * float(abs_mean)
    return total, abs_total


def _annulus_sum(
    f: FieldFn, b: complex, eps: float, nr: int, na: int, absolute: bool = False
) -> complex:
    # polar coordinates around b; the disk boundary sits at
    # rho_max(theta) = -c + sqrt(c^2 + 1 - |b|^2), c = Re(conj(b) e^{i theta});
    # log-radial Gauss-Legendre handles the wide range [eps, rho_max]
    phase = _angles(na)
    c = (b.conjugate() * phase).real
    radicand = np.maximum(c * c + 1.0 - abs(b) ** 2, 0.0)
    rho_max = -c + np.sqrt(radicand)
    with np.errstate(divide="ignore", invalid="ignore"):
        span = np.where(rho_max > eps, np.log(np.maximum(rho_max, eps) / eps), 0.0)
    active = span > 0.0
    if not active.any():
        return 0.0 + 0.0j
    t, wt = _gauss01(nr)
    phase_a = phase[active]
    span_a = span[active]

    sums = np.zeros(nr, dtype=complex)
    for rings, _, cols in _ring_blocks(np.full(nr, span_a.size)):
        rho = eps * np.exp(t[rings, None] * span_a[cols])
        vals = _eval_nodes(f, b + rho * phase_a[cols])
        if absolute:
            vals = np.abs(vals)
        sums[rings] += (span_a[cols] * vals * rho * rho).sum(axis=1)
    total = 0.0 + 0.0j
    for wi, ring in zip(wt, sums):
        total += (2.0 / na) * wi * complex(ring)
    return total


def integrate_disk_singular(
    f: FieldFn, b: complex, s: float, rule: DiskRule
) -> Integral:
    """Integral of f with an |w - b|^{-s} singularity at b, s in (0, 2).

    The rule's singularity strategy picks the method: Mobius substitution
    (exact flattening, center must match b) or annulus exclusion at
    epsilon, epsilon/2, epsilon/4 with two-stage Richardson extrapolation
    on the known expansion exponents 2-s and 4-s.
    """
    if not 0.0 < s < 2.0:
        raise DomainError(f"singularity exponent s = {s:g} is not integrable")
    b = complex(b)
    if abs(b) > 1.0:
        raise DomainError(f"singular point must lie in the closed disk, |b| = {abs(b):g}")
    sing = rule.singularity
    if sing is None:
        raise ConfigurationError(
            "integrate_disk_singular requires a rule with a singularity strategy"
        )
    if isinstance(sing, Mobius):
        if abs(sing.center - b) > 1e-12:
            raise ConfigurationError(
                f"rule is centered at {sing.center:.8g} but the singularity is at {b:.8g}"
            )
        value, abs_value = _mobius_sum(f, b, s, rule.radial_nodes, rule.angular_nodes)
        half, _ = _mobius_sum(
            f, b, s, max(rule.radial_nodes // 2, 4), max(rule.angular_nodes // 2, 8)
        )
        estimate = abs(value - half) + 8.0 * _EPS * abs_value
        return Integral(value, estimate)
    # annulus exclusion
    eps = sing.epsilon
    if eps >= 1.0 - abs(b):
        raise ConfigurationError(
            f"excluded ball of radius {eps:g} does not fit inside the disk "
            f"around b with |b| = {abs(b):g}"
        )
    nr, na = rule.radial_nodes, rule.angular_nodes
    t0 = _annulus_sum(f, b, eps, nr, na)
    t1 = _annulus_sum(f, b, eps / 2.0, nr, na)
    t2 = _annulus_sum(f, b, eps / 4.0, nr, na)
    r1 = 2.0 ** (s - 2.0)
    first = [(t1 - r1 * t0) / (1.0 - r1), (t2 - r1 * t1) / (1.0 - r1)]
    r2 = 2.0 ** (s - 4.0)
    value = (first[1] - r2 * first[0]) / (1.0 - r2)
    estimate = abs(value - first[1]) + 1e-14 * (1.0 + abs(value))
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
    climbing as epsilon falls.  b may sit on the boundary.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps:
        raise DomainError("epsilon_list must be nonempty")
    if any(not 0.0 < e < 0.5 for e in eps):
        raise DomainError("all epsilons must lie in (0, 0.5)")
    if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
        raise DomainError("epsilons must be strictly decreasing")
    b = complex(b)
    if abs(b) > 1.0 + 1e-12:
        raise DomainError(f"truncation center must lie in the closed disk, |b| = {abs(b):g}")
    if rule is None:
        rule = DiskRule()
    values = [
        _annulus_sum(f, b, e, rule.radial_nodes, rule.angular_nodes, absolute=True)
        for e in eps
    ]
    return [float(v.real) for v in values]
