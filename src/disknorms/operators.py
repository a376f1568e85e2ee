"""Integral operators on the unit disk.

Five operators share the evaluation pipeline here.  Writing K_z(w) for the
kernel at evaluation point z, each operator is f |-> integral of K_z * f over
the disk with normalized area measure:

    cauchy    K_z(w) = 1 / (w - z)            singular at w = z
    bergman   K_z(w) = 1 / (1 - conj(w) z)^2  bounded for |z| < 1
    j0        K_z(w) = z / (1 - conj(w) z)    bounded, vanishing at z = 0
    j0star    K_z(w) = conj(w) / (1 - conj(w) z)
    cdelta    K_z(w) = 1/(z - w) + conj(w)/(1 - conj(w) z)

The last one solves d/dzbar u = f (its output is an antiderivative in the
zbar direction), and it equals j0star minus cauchy.  Both identities are
checked numerically by the helpers at the bottom of the module:
``dbar_identity_residual`` differentiates the output field with a central
finite difference, and ``adjoint_pairing_residual`` tests the duality
<j0 f, g> = <f, j0star g> on staggered quadrature grids.  It samples each
field once, on both grids together, and sums both kernels' mode series on
the moments the inner rings resolve, taken to the outer rings by one
zero-padded inverse FFT.

By default ``apply`` evaluates by angular modes (``_mode_integral``).  Every
kernel is a power series in z conj(w), so with f = sum_n f_n(rho) e^{in phi}
and m_n = 2 int_0^1 f_n rho^{n+1} d rho,

    j0star f(z)  = sum_{n>=0} m_{n+1} z^n
    j0 f(z)      = sum_{n>=0} m_n z^{n+1}
    bergman f(z) = sum_{n>=0} (n+1) m_n z^n
    cauchy f(z)  = sum_{k>=0} [2 int_{|z|}^1 (z/rho)^k f_{k+1} d rho
                               - 2 int_0^{|z|} (rho/z)^{k+1} f_{-k} d rho]

and cdelta = j0star - cauchy; the cauchy split at rho = |z| is Daripa's
(SIAM J. Sci. Stat. Comput. 13, 1992).  Every power has modulus at most 1,
so the kernel's boundary layer never appears and the work is set by the
field's angular bandwidth, not by 1/(1-|z|).  A ring of N angles resolves
exactly the modes |n| < N/2 (Trefethen & Weideman, SIAM Rev. 56, 2014),
and the engine and the pairing both sum these series on those modes and on
no others.  A field the engine does not resolve falls back to the
quadrature rule ``DiskRule.for_point`` builds.

An explicit rule takes the quadrature route.  Singular operators (cauchy,
cdelta) must then be given a Mobius rule, which is summed at the
evaluation point; the bounded three refuse rules with a strategy attached.
On the Mobius rule the kernel, the Jacobian and the polar r collapse to one
closed-form weight per node (``_mobius_weigh``), so w - z is never formed
by subtraction.  Near the boundary every kernel develops a thin angular
layer; the quadrature module's tensor and Mobius sums refuse a rule with too
few angles for it, and the Mobius sum one whose outermost ring misses it.

The tensor and Mobius rules sum on the quadrature module's one radial rule:
2m+1 Gauss-Kronrod rings, m = (radial_nodes - 1)//2, with even ring counts,
each field node evaluated once.  The estimate is the distance to the m
Gauss rings plus the distance to the half-count trapezoid on the same
rings, plus a rounding floor; the mode engine's has the same structure.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, PrecisionError
from .quadrature import (
    DiskRule,
    FieldFn,
    Integral,
    _angles,
    _EPS,
    _eval_nodes,
    _gauss01,
    _kronrod01,
    _mobius_integral,
    _tensor_integral,
    _unit_gap,
)

__all__ = [
    "Operator",
    "apply",
    "adjoint_pairing_residual",
    "dbar_identity_residual",
]

# Bounded kernels still blow up like 1/(1-|z|); cap evaluation points away
# from the boundary so the angular-node floor stays finite.
_BOUNDARY_MARGIN = 1e-6
# the mode engine's rings per radial interval (2*16 + 1 Gauss-Kronrod) and
# its angular counts, doubled from the first up to the last
_MODE_RINGS = 16
_MODE_START = 32
_MODE_CAP = 2048
# the check grid's turn in units of its angle step: irrational, so that a
# mode aliased on both grids lands with another phase
_MODE_TURN = (math.sqrt(5.0) - 1.0) / 2.0


class Operator(str, enum.Enum):
    """Operator identifiers, doubling as CLI flag values."""

    CAUCHY = "cauchy"
    BERGMAN = "bergman"
    J0 = "j0"
    J0_STAR = "j0star"
    C_DELTA = "cdelta"


_SINGULAR_OPS = frozenset({Operator.CAUCHY, Operator.C_DELTA})


def _eval_scalar(f: FieldFn, z: complex) -> complex:
    """Evaluate a field at one point, tolerating vector-only callables."""
    return complex(_eval_nodes(f, np.asarray([z], dtype=complex))[0])


def _check_point(op: Operator, z: complex) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError(f"evaluation point |z| = {abs(z):.6g} is not inside the open disk")
    if op not in _SINGULAR_OPS and abs(z) > 1.0 - _BOUNDARY_MARGIN:
        raise DomainError(
            f"{op.value} evaluation restricted to |z| <= {1.0 - _BOUNDARY_MARGIN}; got |z| = {abs(z):.9g}"
        )
    return z


def _bounded_integrand(op: Operator, f: FieldFn, z: complex) -> FieldFn:
    if op is Operator.BERGMAN:
        return lambda w: f(w) / (1.0 - np.conj(w) * z) ** 2
    if op is Operator.J0:
        # kernel z/(1 - wbar z); the z factor is applied after integration
        return lambda w: f(w) / (1.0 - np.conj(w) * z)
    if op is Operator.J0_STAR:
        return lambda w: np.conj(w) * f(w) / (1.0 - np.conj(w) * z)
    raise ConfigurationError(f"{op!r} is not a bounded operator")


def _mobius_weigh(op: Operator, z: complex):
    """Kernel x Jacobian x r of the Mobius rule at z, in closed form.

    With a = r e^{i theta}, D = 1 - conj(z) a and c = 1 - |z|^2 the node is
    w = (z - a)/D, so w - z = -a c/D and 1 - conj(w) z = c/conj(D); the
    Jacobian is c^2/|D|^4.  The kernels times Jacobian times r are
        cauchy  c (conj(z) r - e^{-i theta}) / |D|^4
        cdelta  c (1 - r^2) e^{-i theta} / |D|^4
    and neither forms w - z by subtraction.  The rule runs at s = 1, where
    r^s is the weigher's r.  c is summed exactly (``_unit_gap``).
    """
    c = _unit_gap(z)
    zc = z.conjugate()

    def cauchy(vals, r, phase, denom):
        d2 = denom.real**2 + denom.imag**2
        weight = zc * r - phase.conj()
        weight *= c / (d2 * d2)
        return vals * weight

    def cdelta(vals, r, phase, denom):
        d2 = denom.real**2 + denom.imag**2
        weighted = vals * phase.conj()
        weighted *= c * (1.0 - r) * (1.0 + r) / (d2 * d2)
        return weighted

    return cauchy if op is Operator.CAUCHY else cdelta


def _mode_integral(op: Operator, f: FieldFn, z: complex) -> tuple[Integral, bool]:
    """The operator at z from the angular modes of f, and whether they resolved f.

    f is sampled on the 33 Gauss-Kronrod rings of ``_kronrod01(16)``: over
    [0, 1] for the bounded operators, and over [0, |z|] and [|z|, 1] for
    cauchy and cdelta, whose j0star part uses the same samples.  Each ring
    has N angles, N = 32, 64, ... up to 2048, and one FFT per level gives
    the modes f_n(rho) for |n| < N/2, exactly the modes N angles resolve.
    A level's multiplier table holds each ring's factor of every such mode
    in the module docstring's sums, in FFT column order (mode -n at column
    N - n, the Nyquist column 0).  Its value K sums table times spectrum on the Kronrod
    rings, G on the Gauss rings among them, and K_half reads the table's
    columns |n| < N/4 on the folded spectrum X[k] + X[k + N/2], which is
    exactly the DFT of the even angles.  The rounding floor is 8 eps times
    the sum of |table times spectrum| and of each ring's largest |f| times
    its reach, the row sum of |table|: the FFT's error in every mode.  A level settles once
    every mode with |n| >= N/4 is within 16 eps of the largest field value
    and |K - K_half| is within the floor.  A mode beyond N/2 can alias to
    the same low mode on N and N/2 angles and pass both tests, so a settled
    level is checked on N/2 more angles turned by an irrational fraction of
    their step, where such a mode lands with another phase: every mode with
    |n| < N/4 must agree within the same 16 eps.  The first field call
    takes the 32 angles and the 16 that check them, so a field of angular
    bandwidth below 8 settles on one call; each doubling evaluates only the
    new odd angles, and its check once it settles.  The doubling stops at a
    settled level or at the cap; only a level whose high modes pass, or the
    cap, forms the sums.  The estimate is |K - G| + |K - K_half| + floor,
    plus the check's largest disagreement times the reach; the flag says
    that f was resolved: the level settled and |K - G| too is within the
    floor.
    """
    t, wk, wg = _kronrod01(_MODE_RINGS)
    r = abs(z)
    unit = z / r if r > 0.0 else 1.0
    rho, ratio, inner = t, unit * r / t, np.zeros(t.size, dtype=bool)
    singular = op in _SINGULAR_OPS
    if singular and r > 0.0:
        rho = np.concatenate([r * t, r + (1.0 - r) * t])
        # (rho/z)^(k+1) on [0, |z|] and (z/rho)^k on [|z|, 1], both of modulus <= 1
        ratio = np.concatenate([unit.conjugate() * t, unit * r / rho[t.size :]])
        inner = np.arange(rho.size) < t.size
        wk, wg = (np.concatenate([r * w, (1.0 - r) * w]) for w in (wk, wg))
    x = rho * z

    def sample(angles):
        return _eval_nodes(f, rho[:, None] * angles)

    def turned(count):
        # the angle by which the check grid of a level of count angles is turned
        return 2.0 * math.pi * _MODE_TURN / (count // 2)

    def powers(base, count):
        # base^k for k < count as (base^m)^q base^j, k = q m + j: 2 sqrt(count) powers a ring
        m = math.isqrt(count - 1) + 1
        coarse, fine = (base[:, None] ** m) ** np.arange(-(-count // m)), base[:, None] ** np.arange(m)
        return (coarse[:, :, None] * fine[:, None, :]).reshape(rho.size, -1)[:, :count]

    def table(count):
        # each ring's multiplier of the modes |k| < count/2 in FFT column
        # order: mode -k at column count - k, the Nyquist column 0
        half = count // 2
        out = np.zeros((rho.size, count), dtype=complex)
        if op is not Operator.CAUCHY:
            xk = powers(x, half)
        if op is Operator.J0:
            out[:, :half] = 2.0 * z * rho[:, None] * xk
        elif op is Operator.BERGMAN:
            out[:, :half] = 2.0 * np.arange(1, half + 1) * rho[:, None] * xk
        elif op is not Operator.CAUCHY:
            out[:, 1:half] = 2.0 * rho[:, None] ** 2 * xk[:, :-1]
        if singular:
            # modes k >= 1 on the outer rings, k <= 0 on the inner ones
            sign, ratios = (2.0 if op is Operator.CAUCHY else -2.0), powers(ratio, half + 1)
            out[:, 1:half] += np.where(inner[:, None], 0.0, sign * ratios[:, : half - 1])
            out[:, 0] -= np.where(inner, sign * ratios[:, 1], 0.0)
            out[:, :half:-1] -= np.where(inner[:, None], sign * ratios[:, 2:], 0.0)
        return out

    count = _MODE_START
    both = sample(np.concatenate([_angles(count), _angles(count // 2) * np.exp(1j * turned(count))]))
    vals, check = both[:, :count], both[:, count:]
    while True:
        spectrum = np.fft.fft(vals, axis=1) / count
        small = 16.0 * _EPS * np.abs(vals).max()
        quarter, alias = count // 4, 0.0
        n = np.arange(1 - quarter, quarter)  # the modes of the half level and the check
        settled = np.abs(spectrum[:, quarter : count - quarter + 1]).max() <= small
        if settled or count == _MODE_CAP:
            multipliers = table(count)
            full = multipliers * spectrum
            sums = full.sum(axis=1)
            kronrod = np.dot(wk, sums)
            folded = spectrum[:, : 2 * quarter] + spectrum[:, 2 * quarter :]
            half = np.dot(wk, (multipliers[:, n % count] * folded[:, n % (2 * quarter)]).sum(axis=1))
            # each product's roundings, and the FFT's: about eps max|f| in every mode
            reach = np.abs(multipliers).sum(axis=1)
            floor = 8.0 * _EPS * np.dot(wk, np.abs(full).sum(axis=1) + np.abs(vals).max(axis=1) * reach)
            settled = settled and abs(kronrod - half) <= floor
        if settled:
            turn = turned(count)
            if check is None:
                check = sample(_angles(count // 2) * np.exp(1j * turn))
            turned_spectrum = np.fft.fft(check, axis=1) / (count // 2)
            gap = np.abs(turned_spectrum[:, n] * np.exp(-1j * turn * n) - spectrum[:, n]).max()
            settled, alias = gap <= small, gap * np.dot(wk, reach)
        if settled or count == _MODE_CAP:
            break
        odd = sample(_angles(2 * count)[1::2])
        vals = np.stack([vals, odd], axis=2).reshape(rho.size, 2 * count)
        count, check = 2 * count, None
    radial = abs(kronrod - np.dot(wg, sums))
    estimate = radial + abs(kronrod - half) + floor + alias
    return Integral(complex(kronrod), float(estimate)), settled and radial <= floor


def _quadrature(op: Operator, f: FieldFn, z: complex, rule: DiskRule) -> Integral:
    """The quadrature route; the sum it takes checks the rest of the rule."""
    if op in _SINGULAR_OPS:
        if rule.singularity is None:
            raise ConfigurationError(f"{op.value} takes a Mobius rule")
        return _mobius_integral(f, z, 1.0, rule, _mobius_weigh(op, z))
    inner = _tensor_integral(_bounded_integrand(op, f, z), rule, z)
    if op is Operator.J0:
        return Integral(z * inner.value, abs(z) * inner.abs_error_estimate)
    return inner


def apply(op: Operator, f: FieldFn, z: complex, rule: Optional[DiskRule] = None) -> Integral:
    """Evaluate one operator at an interior point.

    ``rule=None`` evaluates by angular modes (``_mode_integral``) at a cost
    set by the field's angular bandwidth B at every |z|, on 33 rings (66
    for cauchy and cdelta at z != 0): a field settles at the first N = 32,
    64, ... angles with B <= N/4 - 1, for every operator.  The first field
    call takes 32 angles and the 16 that check them for aliasing, so a
    field with B <= 7, such as a polynomial of degree 7, costs that one call
    of 1,584 or 3,168 nodes; a wider one costs 1.5 N + 16 angles a ring.
    cauchy and cdelta answer up to the rim.  If the modes do not resolve f
    (a field with its own layer near the rim needs more than 2048 angles,
    one singular inside the disk more than 33 rings), the quadrature rule
    of ``DiskRule.for_point`` runs too, where it reaches, and the result
    with the smaller estimate is returned.

    An explicit rule takes the quadrature route of the module docstring,
    validated rather than silently upgraded, before any field evaluation:
    a singular operator's rule without a Mobius strategy, a bounded
    operator's with one, or too few angular nodes raise
    ``ConfigurationError``, and a Mobius rule whose outermost ring misses
    the kernel's layer at z raises ``DomainError``.  The tensor and Mobius
    sums make these checks; only the first is made here.
    """
    op = Operator(op)
    z = _check_point(op, z)
    if rule is not None:
        return _quadrature(op, f, z, rule)
    modes, resolved = _mode_integral(op, f, z)
    if resolved:
        return modes
    try:
        quad = _quadrature(op, f, z, DiskRule.for_point(z, singular=op in _SINGULAR_OPS))
    except DomainError:
        return modes
    return min(modes, quad, key=lambda result: result.abs_error_estimate)


def adjoint_pairing_residual(f: FieldFn, g: FieldFn, rule: Optional[DiskRule] = None) -> float:
    """Residual of the duality <j0 f, g> = <f, j0star g>.

    Inner integrals come from ``rule``: Gauss-Legendre radii t against na
    uniform angles.  The images are sampled on a staggered outer grid (5
    more radii s, nb = na + 16 angles), so the identity is not a transpose
    tautology of one discretization.  Both kernels are power series in
    conj(w) z, so each image at z sums z^m times the moment of conj(w)^m
    against its integrand: f for j0 (times z), conj(w) g for j0star.  An
    na-angle ring resolves exactly the modes |m| < na/2, so the images sum
    the inner rings' moments 0 <= m < na/2: one FFT a ring gives them, t^m
    s^m carries them to the outer ring of radius s, and one inverse FFT
    zero-padded to nb angles sums them there.  A pair of polynomials of
    total degree D <= min(na/2, radial_nodes) - 1 has no moment outside that
    range, and both rules integrate it exactly, so its residual is rounding
    alone.  f and g are each evaluated once, on the inner and the outer
    nodes together.
    """
    if rule is None:
        rule = DiskRule(radial_nodes=32, angular_nodes=64)
    if rule.singularity is not None:
        raise ConfigurationError("pairing residual uses bounded kernels; rule must not carry a singularity strategy")

    na, nb = rule.angular_nodes, rule.angular_nodes + 16
    t, wt = _gauss01(rule.radial_nodes)
    s, ws = _gauss01(rule.radial_nodes + 5)
    w_in = (t[:, None] * _angles(na)).ravel()
    z_out = (s[:, None] * _angles(nb)).ravel()
    wt_out = np.repeat(2.0 * ws * s / nb, nb)

    # one field call each, on the inner and the outer nodes together
    nodes = np.concatenate([w_in, z_out])
    f_in, f_out = np.split(_eval_nodes(f, nodes), [w_in.size])
    g_in, g_out = np.split(_eval_nodes(g, nodes), [w_in.size])
    # weighted ring samples of the j0 integrand f and the j0star integrand conj(w) g
    c = np.stack([f_in, np.conj(w_in) * g_in])
    m = np.arange((na + 1) // 2)
    spec = np.fft.fft(c.reshape(2, t.size, na) * (2.0 * wt * t / na)[:, None], axis=-1)[..., m]
    moments = (spec * t[:, None] ** m).sum(axis=1)
    images = nb * np.fft.ifft(moments[:, None, :] * s[:, None] ** m, n=nb, axis=-1)

    lhs = np.sum(wt_out * z_out * images[0].ravel() * np.conj(g_out))
    rhs = np.sum(wt_out * f_out * np.conj(images[1].ravel()))
    return float(abs(lhs - rhs))


_DBAR_SIGN = {
    Operator.C_DELTA: 1.0,
    Operator.CAUCHY: -1.0,
    Operator.BERGMAN: 0.0,
    Operator.J0: 0.0,
    Operator.J0_STAR: 0.0,
}


def dbar_identity_residual(
    f: FieldFn,
    z: complex,
    h: float,
    rule: Optional[DiskRule] = None,
    op: Operator = Operator.C_DELTA,
) -> float:
    """Check d/dzbar of an operator output field against its known value.

    The zbar derivative of the combined transform reproduces ``f(z)``, the
    Cauchy transform gives ``-f(z)``, and the three holomorphic-output
    operators give zero.  The derivative is a central difference

        [(u(z+h) - u(z-h)) + i (u(z+ih) - u(z-ih))] / (4h)

    so the returned residual carries an O(h^2) truncation term plus the
    quadrature noise of four operator evaluations divided by 4h.  When that
    noise term alone exceeds half the comparison scale the step cannot
    resolve the identity and a PrecisionError is raised instead of returning
    a meaningless number; z or a shifted point past ``apply``'s reach
    raises DomainError first.  An explicit rule goes to ``apply`` as given.
    """
    op = Operator(op)
    if not 0.0 < h < math.inf:
        raise DomainError(f"finite-difference step h must satisfy 0 < h < inf, got {h}")
    z = _check_point(op, z)

    shifts = (z + h, z - h, z + 1j * h, z - 1j * h)
    for point in shifts:
        try:
            _check_point(op, point)
        except DomainError as exc:
            raise DomainError(f"step h = {h:.6g} at z = {z:.6g} puts a stencil point out of reach: {exc}") from None
    values = []
    noise = 0.0
    for point in shifts:
        result = apply(op, f, point, rule)
        values.append(result.value)
        noise += result.abs_error_estimate

    derivative = (values[0] - values[1] + 1j * (values[2] - values[3])) / (4.0 * h)
    expected = _DBAR_SIGN[op] * _eval_scalar(f, z)
    scale = max(1.0, abs(expected))
    if noise / (4.0 * h) > 0.5 * scale:
        raise PrecisionError(
            f"step h = {h:.3g} is too small relative to quadrature noise "
            f"{noise:.3g}; the finite difference cannot resolve the identity",
            best=float(abs(derivative - expected)),
        )
    return float(abs(derivative - expected))
