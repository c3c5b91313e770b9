"""Certified bounds for the restriction constant R*(p -> q).

R*(p -> q) is the best constant in ||(g dsigma)_||_{L^q(F^n)} <= C ||g||_{L^p(S, dsigma)},
equivalently the L^p(dsigma) -> L^q(counting) norm of the extension operator.
Three certificate grades are produced: Exact from closed forms (q = oo, and
q = 2 with p >= 2 where the extension is a scaled isometry), Upper from the
even-exponent counting identity, and Lower from explicit witnesses or a
nonlinear power iteration.  Every Lower certificate embeds its witness and is
re-evaluated through the direct-summation path before being trusted.

The module also houses the surrounding checks: necessary exponent regions,
the interpolation shape bound, the self-dot incidence count, the
pseudoconformal substitution identity, the lift identities connecting
restriction to line families, and the even-exponent majorant property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

import numpy as np

from .certificates import (
    Exponent,
    NormCertificate,
    as_float,
    exponent_str,
    holder_dual,
    parse_exponent,
    recheck_agrees,
)
from .errors import (
    MinusOneIsSquareError,
    NoClosedFormError,
    NotAMajorantError,
    SubspaceNotFoundError,
    SupportViolationError,
    UnknownWitnessError,
    WrongSurfaceKindError,
)
from .field import Field, make_field
from .grid import (
    Grid,
    Side,
    convolve,
    flat_points,
    fourier_forward,
    fourier_inverse,
    grid_from_bytes,
    grid_to_bytes,
    lp_norm,
)
from .surfaces import (
    SurfaceFunction,
    SurfaceKind,
    SurfaceMeasure,
    bochner_riesz_kernel,
    build_surface,
    cone_counterexample_set,
    double_paraboloid,
    double_paraboloid_index,
    extension,
    extension_direct,
    indicator_grid,
    paraboloid,
    restriction,
    restriction_direct,
    surface_lp_norm,
    surface_sum_max,
)

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITERS = 500
DEFAULT_TOL = 1e-10


# -- certificate plumbing -----------------------------------------------------------


def _surface_meta(surface: SurfaceMeasure) -> dict:
    meta = {"surface_kind": surface.kind.value}
    if surface.kind == SurfaceKind.CONE:
        meta["include_origin"] = bool(np.all(surface.points[-1] == 0)) and int(
            surface.size
        ) == surface.field.order**2
    return meta


def _base_cert(surface, kind, method, p, q, value, witness=None, meta=None) -> NormCertificate:
    m = _surface_meta(surface)
    if meta:
        m.update(meta)
    return NormCertificate(
        quantity="rstar",
        kind=kind,
        method=method,
        char=surface.field.p,
        degree=surface.field.k,
        n=surface.n,
        surface=surface.describe(),
        p=p,
        q=q,
        value=value,
        witness=witness,
        meta=m,
    )


def rebuild_surface(cert: NormCertificate) -> SurfaceMeasure:
    """Reconstruct the surface a certificate refers to from its metadata."""
    kind = cert.meta.get("surface_kind")
    if kind is None or kind == SurfaceKind.CUSTOM.value:
        raise UnknownWitnessError("certificate does not name a rebuildable surface")
    fld = make_field(cert.char, cert.degree)
    if kind == SurfaceKind.CONE.value:
        return build_surface(kind, fld, cert.n, include_origin=cert.meta.get("include_origin", False))
    return build_surface(kind, fld, cert.n)


# -- closed forms --------------------------------------------------------------------


def rstar_exact_closed(surface: SurfaceMeasure, p, q) -> NormCertificate:
    """Exact R*(p -> q) where a closed form exists.

    q = oo: the extension is bounded by the L^1(dsigma) mass, so the constant
    is 1, attained by g = 1 at x = 0.  q = 2, p >= 2: Parseval makes the
    extension a scaled isometry of L^2(dsigma), giving (|F|^n/|S|)^{1/2},
    attained by constants.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    fld = surface.field
    if q == math.inf:
        return _base_cert(
            surface, "exact", "closed_form", p, q, 1.0,
            meta={"derivation": "unit-mass bound, attained by the constant at x = 0"},
        )
    if q == 2 and p >= 2:
        value = math.sqrt(fld.order**surface.n / surface.size)
        return _base_cert(
            surface, "exact", "closed_form", p, q, value,
            meta={"derivation": "scaled-isometry identity ||Eg||_2 = (|F|^n/|S|)^{1/2} ||g||_2"},
        )
    raise NoClosedFormError(f"no closed form at ({exponent_str(p)}, {exponent_str(q)})")


def rstar_upper_even(surface: SurfaceMeasure, k: int, budget: int = 10**9) -> NormCertificate:
    """Certified upper bound R*(2 -> 2k) <= A^{1/2k} |F|^{n/2k} |S|^{-1/2}.

    A is the exact maximum number of ordered k-tuples of surface points with
    a given sum.  Expanding ||Eg||_{2k}^{2k} by orthogonality and applying
    Cauchy-Schwarz per sum value makes the constant exactly 1.  The cone at
    k = 2 is symmetric, so the zero-sum diagonal is bounded separately and A
    is taken over nonzero sums, at the price of A + 1.
    """
    if k not in (2, 3):
        raise ValueError("even-exponent counting supports k in {2, 3}")
    fld = surface.field
    split_diagonal = surface.kind == SurfaceKind.CONE and k == 2
    if split_diagonal:
        a_count = surface_sum_max(surface, k, exclude_zero=True, budget=budget)
        effective = a_count + 1
    else:
        a_count = surface_sum_max(surface, k, budget=budget)
        effective = a_count
    value = (effective * fld.order**surface.n) ** (1.0 / (2 * k)) / math.sqrt(surface.size)
    return _base_cert(
        surface, "upper", "even_counting", 2, 2 * k, value,
        meta={
            "tuple_count_max": a_count,
            "k": k,
            "diagonal_split": split_diagonal,
            "formula": "(A |F|^n)^{1/2k} |S|^{-1/2}" if not split_diagonal
            else "((A+1) |F|^n)^{1/2k} |S|^{-1/2}",
        },
    )


# -- power iteration -----------------------------------------------------------------


def _phase(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


def _dual_on_grid(u: np.ndarray, q: Exponent, norm: float) -> np.ndarray:
    """L^q-norming element on the counting side: <u, dual> = ||u||_q, ||dual||_{q'} = 1."""
    if q == math.inf:
        out = np.zeros_like(u)
        i = int(np.argmax(np.abs(u)))
        out[i] = _phase(u[i : i + 1])[0]
        return out
    qf = as_float(q)
    return np.abs(u) ** (qf - 1.0) * _phase(u) / norm ** (qf - 1.0)


def _renorm_on_surface(w: np.ndarray, p: Exponent, surface: SurfaceMeasure) -> np.ndarray:
    """Map the adjoint output to the next unit-L^p(dsigma) iterate."""
    if p == math.inf:
        g = _phase(w)
    elif p == 1:
        g = np.zeros_like(w)
        i = int(np.argmax(np.abs(w)))
        g[i] = _phase(w[i : i + 1])[0]
    else:
        pf = as_float(p)
        g = np.abs(w) ** (1.0 / (pf - 1.0)) * _phase(w)
    sf = SurfaceFunction(surface, g)
    nrm = surface_lp_norm(sf, p)
    if nrm == 0:
        g = np.ones_like(w)
        nrm = 1.0
    return g / nrm


def _power_ascent(surface, p, q, g0, max_iters, tol):
    g = _renorm_on_surface(np.asarray(g0, dtype=np.complex128), p, surface)
    prev = -math.inf
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        u = extension(SurfaceFunction(surface, g)).values
        ratio = lp_norm(Grid(surface.field, surface.n, u, Side.SPACE), q)
        if abs(ratio - prev) <= tol * max(1.0, ratio):
            converged = True
            break
        prev = ratio
        dual = _dual_on_grid(u, q, ratio)
        w = restriction(
            fourier_forward(Grid(surface.field, surface.n, dual, Side.SPACE)), surface
        ).values
        g = _renorm_on_surface(w, p, surface)
    return g, prev if prev > -math.inf else 0.0, iters, converged


def rstar_lower_power(
    surface: SurfaceMeasure,
    p,
    q,
    *,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> NormCertificate:
    """Lower bound via alternating dual-norm ascent from multiple starts.

    Restart 0 is the constant, restart 1 a point mass, the rest random unit
    phases with per-restart seed = seed + index.  Whatever the optimizer
    does, the reported value is recomputed from the best witness through the
    direct-summation extension, so the certificate is always a true lower
    bound.  Ties across restarts break toward the lowest index.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    if restarts < 1:
        raise ValueError("need at least one restart")
    m = surface.size
    best: tuple[float, int, np.ndarray, int, bool] | None = None
    for idx in range(restarts):
        if idx == 0:
            g0 = np.ones(m, dtype=np.complex128)
        elif idx == 1:
            g0 = np.zeros(m, dtype=np.complex128)
            g0[0] = 1.0
        else:
            rng = np.random.default_rng(seed + idx)
            g0 = np.exp(2j * np.pi * rng.random(m))
        g, val, iters, conv = _power_ascent(surface, p, q, g0, max_iters, tol)
        if best is None or val > best[0] + 1e-15:
            best = (val, idx, g, iters, conv)
    assert best is not None
    val, idx, g, iters, conv = best
    witness = SurfaceFunction(surface, g)
    certified = lp_norm(extension_direct(witness), q) / surface_lp_norm(witness, p)
    return _base_cert(
        surface, "lower", "power_iteration", p, q, certified,
        witness=np.asarray(g, dtype=np.complex128).tobytes(),
        meta={
            "witness_form": "surface_function",
            "seed": seed,
            "restarts": restarts,
            "max_iters": max_iters,
            "tol": tol,
            "best_restart": idx,
            "iterations": iters,
            "converged": bool(conv),
            "transform_value": float(val),
        },
    )


# -- explicit witnesses --------------------------------------------------------------


def find_affine_line(surface: SurfaceMeasure, limit: int = 10**4):
    """Search the surface for a fully contained affine line {a + tb}.

    Base points run over the surface, directions over projective
    representatives (first nonzero coordinate scaled to 1).  Returns (a, b)
    as coordinate arrays; raises SubspaceNotFound when no line exists.
    """
    if surface.size > limit:
        raise SubspaceNotFoundError(f"surface too large for line search (> {limit})")
    fld = surface.field
    n = surface.n
    flats = set(int(f) for f in surface.flat)
    qn = fld.order**n
    coords = fld.grid_coords(n)
    reps = []
    for v in range(1, qn):
        c = coords[v]
        lead = next(int(x) for x in c if x != 0)
        if lead == 1:
            reps.append(c)
    ts = np.arange(fld.order, dtype=np.int64)
    for a in surface.points:
        for b in reps:
            pts = np.stack(
                [fld.add_arrays(np.full_like(ts, a[j]), fld.mul_arrays(ts, b[j])) for j in range(n)],
                axis=1,
            )
            if all(int(f) in flats for f in flat_points(fld, pts)):
                return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    raise SubspaceNotFoundError("no affine line inside the surface")


def rstar_lower_witness(surface: SurfaceMeasure, p, q, name: str, line=None) -> NormCertificate:
    """Lower bound from a named explicit witness.

    dirac and constant test the extension directly; subspace uses the
    indicator of an affine line inside the surface; dual_cone_X tests the
    dual form with the half-dimension set X whose transform is large on the
    cone.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    fld = surface.field
    if name == "dirac":
        g = SurfaceFunction.delta(surface)
        value = lp_norm(extension(g), q) / surface_lp_norm(g, p)
        closed = surface.size ** (1.0 / as_float(p) - 1.0) * float(fld.order) ** (
            surface.n / as_float(q)
        )
        return _base_cert(
            surface, "lower", "witness", p, q, value,
            witness=g.values.tobytes(),
            meta={"witness_form": "surface_function", "witness_name": name, "closed_form": closed},
        )
    if name == "constant":
        g = SurfaceFunction.constant(surface)
        value = lp_norm(extension(g), q) / surface_lp_norm(g, p)
        return _base_cert(
            surface, "lower", "witness", p, q, value,
            witness=g.values.tobytes(),
            meta={"witness_form": "surface_function", "witness_name": name},
        )
    if name == "subspace":
        if line is None:
            a, b = find_affine_line(surface)
        else:
            a, b = (np.asarray(x, dtype=np.int64) for x in line)
        ts = np.arange(fld.order, dtype=np.int64)
        pts = np.stack(
            [
                fld.add_arrays(np.full_like(ts, a[j]), fld.mul_arrays(ts, b[j]))
                for j in range(surface.n)
            ],
            axis=1,
        )
        lf = set(int(x) for x in flat_points(fld, pts))
        vals = np.array([1.0 if int(f) in lf else 0.0 for f in surface.flat], dtype=np.complex128)
        g = SurfaceFunction(surface, vals)
        value = lp_norm(extension(g), q) / surface_lp_norm(g, p)
        return _base_cert(
            surface, "lower", "witness", p, q, value,
            witness=g.values.tobytes(),
            meta={
                "witness_form": "surface_function",
                "witness_name": name,
                "line_base": [int(x) for x in a],
                "line_dir": [int(x) for x in b],
            },
        )
    if name == "dual_cone_X":
        if surface.kind != SurfaceKind.CONE:
            raise WrongSurfaceKindError("the dual set witness lives on the cone")
        x_set = cone_counterexample_set(fld)
        f = indicator_grid(fld, 3, x_set, Side.SPACE)
        sampled = restriction(fourier_forward(f), surface)
        value = surface_lp_norm(sampled, holder_dual(p)) / lp_norm(f, holder_dual(q))
        return _base_cert(
            surface, "lower", "witness", p, q, value,
            witness=grid_to_bytes(f),
            meta={
                "witness_form": "space_indicator",
                "witness_name": name,
                "set_size": int(len(x_set)),
            },
        )
    raise UnknownWitnessError(f"no witness named {name!r}")


def recheck_lower(cert: NormCertificate) -> float:
    """Recompute a Lower certificate's ratio through the direct-summation path.

    The fast transform is deliberately avoided so a transform bug cannot
    confirm itself.
    """
    if cert.kind != "lower" or cert.witness is None:
        raise UnknownWitnessError("only witness-bearing lower certificates can be rechecked")
    surface = rebuild_surface(cert)
    form = cert.meta.get("witness_form", "surface_function")
    if form == "surface_function":
        vals = np.frombuffer(cert.witness, dtype="<c16")
        g = SurfaceFunction(surface, vals.copy())
        return lp_norm(extension_direct(g), cert.q) / surface_lp_norm(g, cert.p)
    if form == "space_indicator":
        f = grid_from_bytes(cert.witness)
        sampled = restriction_direct(f, surface)
        return surface_lp_norm(sampled, holder_dual(cert.p)) / lp_norm(f, holder_dual(cert.q))
    raise UnknownWitnessError(f"unknown witness form {form!r}")


def verify_lower(cert: NormCertificate) -> bool:
    return recheck_agrees(cert, recheck_lower(cert))


def lambda_q_ratio(cert: NormCertificate) -> float:
    """Measured R*(2 -> q) |S|^{1/2} |F|^{-n/q}: boundedness of this ratio is
    what near-orthogonality of the surface characters would mean.  Reported,
    never asserted.
    """
    surface = rebuild_surface(cert)
    return (
        cert.value
        * math.sqrt(surface.size)
        * float(surface.field.order) ** (-surface.n / as_float(cert.q))
    )


# -- exponent regions ----------------------------------------------------------------


@dataclass(frozen=True)
class ExponentRegion:
    """Necessary conditions for R*(p -> q) to stay bounded as |F| grows.

    d is the surface's dimension parameter (|S| ~ |F|^d); an optional
    k-dimensional contained subspace sharpens the region.
    """

    n: int
    d: Fraction
    k_subspace: int | None = None

    def __post_init__(self):
        if not (0 < self.d < self.n):
            raise ValueError("need 0 < d < n")
        if self.k_subspace is not None and not (0 <= self.k_subspace < self.d):
            raise ValueError("need 0 <= k < d")

    def constraints(self) -> list[tuple[str, Callable[[Exponent, Exponent], bool]]]:
        n, d = self.n, Fraction(self.d)
        items: list[tuple[str, Callable[[Exponent, Exponent], bool]]] = [
            (f"q >= 2n/d = {2 * n / d}", lambda p, q: _exp_ge(q, Fraction(2 * n) / d)),
            (f"q >= ({n}/{d}) p'", lambda p, q: _exp_ge(q, _exp_scale(Fraction(n) / d, holder_dual(p)))),
        ]
        if self.k_subspace is not None:
            k = self.k_subspace
            coeff = Fraction(n - k) / (d - k)
            items.append(
                (
                    f"q >= ({n - k}/{d - k}) p'  [contains a {k}-subspace]",
                    lambda p, q: _exp_ge(q, _exp_scale(coeff, holder_dual(p))),
                )
            )
        return items


def _exp_scale(c: Fraction, e: Exponent) -> Exponent:
    return math.inf if e == math.inf else c * Fraction(e)


def _exp_ge(a: Exponent, b: Exponent) -> bool:
    if a == math.inf:
        return True
    if b == math.inf:
        return False
    return Fraction(a) >= Fraction(b)


def necessary_region(n: int, d, k_subspace: int | None = None) -> ExponentRegion:
    return ExponentRegion(n, Fraction(d), k_subspace)


def region_test(region: ExponentRegion, p, q) -> bool:
    """Exact membership test; boundary points count as inside."""
    p = parse_exponent(p)
    q = parse_exponent(q)
    return all(check(p, q) for _, check in region.constraints())


# -- interpolation shape bound -------------------------------------------------------


@dataclass(frozen=True)
class ShapeBound:
    """A bound that holds only up to an absolute constant.

    Not a certificate: the consistency gate must ignore it.
    """

    value: float
    p: Exponent
    q: Exponent
    label: str = "up to an absolute constant"
    meta: dict = dc_field(default_factory=dict)


def tomas_stein_bound(theta, d_tilde, base: NormCertificate) -> ShapeBound:
    """Interpolation against kernel decay: R*(p -> q/theta) is at most
    1 + base^theta |F|^{-d_tilde (1-theta)/4} up to an absolute constant.
    """
    th = Fraction(theta) if not isinstance(theta, float) else Fraction(theta).limit_denominator(10**9)
    if not (0 < th <= 1):
        raise ValueError("theta must lie in (0, 1]")
    size = float(base.char**base.degree)
    dt = Fraction(d_tilde)
    value = 1.0 + base.value ** float(th) * size ** float(-dt * (1 - th) / 4)
    q_out = _exp_scale(1 / th, base.q) if base.q != math.inf else math.inf
    return ShapeBound(
        value=value,
        p=base.p,
        q=q_out,
        meta={"theta": str(th), "d_tilde": str(dt), "base_value": base.value},
    )


def tomas_stein_threshold(n: int, d, d_tilde) -> tuple[Fraction, Fraction]:
    """(theta, q) where the two summands balance when the base is the L^2
    closed form: theta = d~/(2(n-d) + d~) and q = 2 + 4(n-d)/d~.
    """
    d = Fraction(d)
    dt = Fraction(d_tilde)
    theta = dt / (2 * (n - d) + dt)
    return theta, 2 + 4 * (n - d) / dt


# -- self-dot incidences ---------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceReport:
    count: int
    point_count: int
    line_count: int
    bound: float
    satisfied: bool


def selfdot_incidence_count(field: Field, points: np.ndarray) -> IncidenceReport:
    """Count pairs (xi, eta) in P x P with xi.eta = xi.xi, P in F^2.

    Each xi != 0 contributes the line {eta : xi.eta = xi.xi}; the count is an
    incidence count between P and |P| distinct lines, so the line-incidence
    bound min(|P|^{1/2}|L| + |P|, |P||L|^{1/2} + |L|) applies.  Distinctness
    of the lines needs -1 to be a non-square (else xi.xi can vanish).
    """
    if field.is_square(field.minus_one):
        raise MinusOneIsSquareError("-1 is a square; the self-dot lines degenerate")
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (m, 2) array over F^2")
    if np.any(np.all(pts == 0, axis=1)):
        raise ValueError("the origin has a degenerate self-dot line; remove it")
    m = pts.shape[0]
    dots = field.add_arrays(
        field.mul_arrays(pts[:, None, 0], pts[None, :, 0]),
        field.mul_arrays(pts[:, None, 1], pts[None, :, 1]),
    )
    self_dots = np.diagonal(dots)
    count = int(np.sum(dots == self_dots[:, None]))
    bound = math.sqrt(m) * m + m  # |P| = |L| = m, so both terms of the min agree
    return IncidenceReport(count, m, m, bound, count <= bound)


# -- pseudoconformal identity ----------------------------------------------------------


def pseudoconformal_identity_check(g: Grid) -> float:
    """Relative deviation in ||g*K||_4^4 = |F|^{-4} sum_{t != 0, z} |(G dsigma)_(z,t)|^4
    for g supported on the bottom slice of F^3.

    K is the mean-corrected paraboloid kernel; G lifts the slice values to
    the paraboloid with a |F|^2 scaling.  The substitution behind the
    identity is a bijection of the off-slice region, so the two sides agree
    exactly.
    """
    if g.n != 3 or g.side != Side.SPACE:
        raise SupportViolationError("expected a space-side grid on F^3")
    fld = g.field
    q = fld.order
    m = q * q
    if np.any(np.abs(g.values[m:]) > 0):
        raise SupportViolationError("grid must vanish off the bottom slice")
    surf = paraboloid(fld, 3)
    kern = bochner_riesz_kernel(surf)
    lhs = lp_norm(convolve(g, kern), 4) ** 4
    lift = SurfaceFunction(surf, float(m) * g.values[:m])
    u = extension(lift).values.reshape(m, q, order="F")
    rhs = float(np.sum(np.abs(u[:, 1:]) ** 4)) / float(q) ** 4
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0 else 0.0


# -- lift identities -------------------------------------------------------------------


def _line_indicator(field: Field, x0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """chi of {(x0 + vt, t)} as a flat space array over F^n, n = len(x0) + 1."""
    d = len(x0)
    n = d + 1
    out = np.zeros(field.order**n, dtype=np.complex128)
    ts = np.arange(field.order, dtype=np.int64)
    pts = np.stack(
        [field.add_arrays(np.full_like(ts, x0[j]), field.mul_arrays(ts, v[j])) for j in range(d)]
        + [ts],
        axis=1,
    )
    out[flat_points(field, pts)] = 1.0
    return out


def _surface_phase(field: Field, point: np.ndarray, n: int) -> np.ndarray:
    """e(x . point) over the flat space grid F^n."""
    xs = field.grid_coords(n)
    acc = np.zeros(field.order**n, dtype=np.int64)
    for j in range(n):
        acc = field.add_arrays(acc, field.mul_arrays(xs[:, j], point[j]))
    return field.character[acc]


def _rel_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.abs(lhs).max(initial=0.0)), float(np.abs(rhs).max(initial=0.0)))
    if scale == 0.0:
        return 0.0
    return float(np.abs(lhs - rhs).max()) / scale


def bridge_identity_checks(field: Field, n: int, seed: int = 0, trials: int = 5) -> dict:
    """Exact identities tying the doubled paraboloid to line families.

    embed: the transform of f(x) delta_{y=0} at a doubled-surface point
    equals the transform of f at the matching base-surface point.  line_sum:
    extending the phase-twisted lift of h produces a sum of line indicators
    weighted by sqrt(h) and base-surface characters.  cap: freezing the first
    parameter collapses the extension to a one-variable inverse transform
    evaluated along y_ + y_n alpha.  Returns the worst relative deviation per
    identity over the random trials.
    """
    rng = np.random.default_rng(seed)
    q = field.order
    m = q ** (n - 1)
    surf = paraboloid(field, n)
    dsurf = double_paraboloid(field, n)
    coords = field.grid_coords(n - 1)
    neg_flat = flat_points(field, field.neg_arrays(coords))
    dev = {"embed": 0.0, "line_sum": 0.0, "cap": 0.0}

    # (embed) compare the two transforms across every doubled point
    for _ in range(trials):
        f = Grid.random(field, n, rng, Side.SPACE)
        fh = fourier_forward(f).values
        big = np.zeros(q ** (2 * n), dtype=np.complex128)
        big[: q**n] = f.values  # the y = 0 block sits at the low stride
        bh = fourier_forward(Grid(field, 2 * n, big, Side.SPACE)).values
        lhs = bh[dsurf.flat]
        rhs = fh[surf.flat[np.tile(np.arange(m), m)]]
        dev["embed"] = max(dev["embed"], _rel_dev(lhs, rhs))

    # (line_sum) lifted h against the explicit line-sum formula
    for _ in range(trials):
        h = rng.random(m) + 0.25  # positive so the square root stays real
        x0map = rng.integers(0, m, size=m)
        vals = np.empty(dsurf.size, dtype=np.complex128)
        for theta_flat in range(m):
            theta = coords[theta_flat]
            for eta_flat in range(m):
                nf = int(neg_flat[eta_flat])
                x0 = coords[x0map[nf]]
                phase = field.character[field.neg(int(field.dot(x0, theta)))]
                vals[double_paraboloid_index(field, n, eta_flat, theta_flat)] = (
                    math.sqrt(h[nf]) * phase
                )
        lhs = extension(SurfaceFunction(dsurf, vals)).values
        rhs = np.zeros_like(lhs)
        for eta_flat in range(m):
            nf = int(neg_flat[eta_flat])
            xline = _surface_phase(field, surf.points[eta_flat], n)
            yline = _line_indicator(
                field, coords[x0map[nf]], field.neg_arrays(coords[eta_flat])
            )
            rhs += math.sqrt(h[nf]) * np.multiply.outer(yline, xline).reshape(-1)
        rhs *= float(q) ** (1 - n)
        dev["line_sum"] = max(dev["line_sum"], _rel_dev(lhs, rhs))

    # (cap) frozen first parameter against a one-variable inverse transform
    for _ in range(trials):
        alpha_flat = int(rng.integers(0, m))
        alpha = coords[alpha_flat]
        cap_vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        vals = np.zeros(dsurf.size, dtype=np.complex128)
        for theta_flat in range(m):
            vals[double_paraboloid_index(field, n, alpha_flat, theta_flat)] = cap_vals[theta_flat]
        lhs = extension(SurfaceFunction(dsurf, vals)).values
        hh = fourier_inverse(Grid(field, n - 1, cap_vals, Side.FREQUENCY)).values
        xphase = _surface_phase(field, surf.points[alpha_flat], n)
        ys = field.grid_coords(n)
        w = ys[:, : n - 1].copy()
        for j in range(n - 1):
            w[:, j] = field.add_arrays(w[:, j], field.mul_arrays(ys[:, n - 1], alpha[j]))
        hv = hh[flat_points(field, w)]
        rhs = float(q) ** (1 - n) * np.multiply.outer(hv, xphase).reshape(-1)
        dev["cap"] = max(dev["cap"], _rel_dev(lhs, rhs))
    return dev


# -- majorant property -----------------------------------------------------------------


def majorant_ratio(f: Grid, g: Grid, p, tol: float = 1e-9) -> float:
    """||f||_p / ||g||_p given that g's transform dominates: g^ real and
    g^ >= |f^| pointwise.  For even integer p the ratio cannot exceed 1.
    """
    fh = fourier_forward(f).values
    gh = fourier_forward(g).values
    if np.abs(gh.imag).max() > tol:
        raise NotAMajorantError("dominating transform must be real")
    if np.any(gh.real < np.abs(fh) - tol):
        raise NotAMajorantError("transform domination fails")
    return lp_norm(f, p) / lp_norm(g, p)
