"""Certified bounds for the restriction constant R*(p -> q).

R*(p -> q) is the best constant in ||(g dsigma)_||_{L^q(F^n)} <= C ||g||_{L^p(S, dsigma)},
equivalently the L^p(dsigma) -> L^q(counting) norm of the extension operator.
Three certificate grades are produced: Exact from closed forms (q = oo, and
q = 2 with p >= 2 where the extension is a scaled isometry), Upper from the
even-exponent counting identity, and Lower from explicit witnesses or a
nonlinear power iteration.  Each Exact or Upper producer refuses the pairs it
does not cover with NoClosedFormError.  `certify` is the one policy every
command uses: it tries the producers of PRODUCERS in order, skips those that
refuse the pair, and stops at the first Exact certificate, so a new producer
is one PRODUCERS entry and both restriction commands run it.
Every Lower certificate embeds its witness and is re-evaluated through the
direct-summation path, by the same ratio helper with another operator.

The module also houses the surrounding checks: necessary exponent regions,
the self-dot incidence count, the pseudoconformal substitution identity and
the lift identities connecting restriction to line families.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .certificates import (
    Exponent,
    NormCertificate,
    as_float,
    exponent_str,
    holder_dual,
    make_certificate,
    parse_exponent,
    recheck_agrees,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError, FFLabError, NoClosedFormError, require_budget
from .field import Field, make_field
from .kakeya import IncidenceReport, incidence_count, line_flats
from .grid import (
    Grid,
    Side,
    affine_flats,
    blocks,
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
    _adjoint_rows,
    _extend_rows,
    _transform_plan,
    bochner_riesz_kernel,
    build_surface,
    cone_counterexample_set,
    double_paraboloid,
    double_paraboloid_index,
    extension,
    extension_adjoint,
    extension_direct,
    indicator_grid,
    paraboloid,
    restriction_direct,
    surface_lp_norm,
    surface_sum_max,
)

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITERS = 500
DEFAULT_TOL = 1e-10
# Grid entries of a stacked block of power-ascent restarts (``_power_blocks``):
# a block holds at least POWER_BLOCK_ENTRIES, because smaller blocks on two
# threads contend for the interpreter lock (F_7, n = 3 took 135 ms split over
# two threads against 73 ms in one block), and at most POWER_BLOCK_CAP unless a
# single row is larger, because F_31, n = 3 ran slower in two-row blocks than
# in one-row ones (2-core VM, 2 MiB L2 per core).
POWER_BLOCK_ENTRIES = 2**14
POWER_BLOCK_CAP = 2**15


# -- certificate plumbing -----------------------------------------------------------


def _base_cert(surface, kind, method, p, q, value, witness=None, meta=None) -> NormCertificate:
    """A certificate whose meta names ``surface`` by ``surface_kind`` alone, which
    with char, degree and n is all ``rebuild_surface`` reads; then ``meta``."""
    return make_certificate(
        "rstar", surface.field, surface.n, surface.describe(), kind, method, p, q, value,
        witness, {"surface_kind": surface.kind.value, **(meta or {})},
    )


def rebuild_surface(cert: NormCertificate) -> SurfaceMeasure:
    """Build the certificate's ``surface_kind`` over F_{char^degree} at n (n // 2 for
    the double paraboloid, n being ambient); a custom surface is refused."""
    kind = cert.meta.get("surface_kind")
    if kind is None or kind == SurfaceKind.CUSTOM.value:
        raise FFLabError("certificate does not name a rebuildable surface")
    fld = make_field(cert.char, cert.degree)
    if kind == SurfaceKind.DOUBLE_PARABOLOID.value:
        return build_surface(kind, fld, cert.n // 2)
    return build_surface(kind, fld, cert.n)


def _surface_ratio(g: SurfaceFunction, p, q, extend) -> float:
    """||E g||_q / ||g||_{L^p(dsigma)}, with E the extension operator ``extend``."""
    return lp_norm(extend(g), q) / surface_lp_norm(g, p)


def _space_ratio(f: Grid, surface: SurfaceMeasure, p, q, restrict) -> float:
    """||E* f||_{L^{p'}(dsigma)} / ||f||_{q'}, with E* the adjoint ``restrict``."""
    return surface_lp_norm(restrict(f, surface), holder_dual(p)) / lp_norm(f, holder_dual(q))


def _surface_lower(g: SurfaceFunction, p, q, extend, method: str, meta: dict) -> NormCertificate:
    """The Lower certificate witnessed by the surface function g."""
    return _base_cert(
        g.surface, "lower", method, p, q, _surface_ratio(g, p, q, extend),
        witness=g.values.astype("<c16").tobytes(),  # the byte order recheck_lower reads
        meta={"witness_form": "surface_function", **meta},
    )


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


def rstar_upper_even(
    surface: SurfaceMeasure, p, q, budget: int = DEFAULT_BUDGET
) -> NormCertificate:
    """Certified upper bound R*(2 -> 2k) <= A^{1/2k} |F|^{n/2k} |S|^{-1/2}.

    A is the exact maximum number of ordered k-tuples of surface points with
    a given sum.  Expanding ||Eg||_{2k}^{2k} by orthogonality and applying
    Cauchy-Schwarz per sum value makes the constant exactly 1.  The cone at
    k = 2 is symmetric, so the zero-sum diagonal is bounded separately and A
    is taken over nonzero sums, at the price of A + 1.  Any pair but (2, 4)
    and (2, 6) is refused with NoClosedFormError before any counting.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    if p != 2 or q not in (4, 6):
        pair = f"({exponent_str(p)}, {exponent_str(q)})"
        raise NoClosedFormError(f"even counting covers only (2, 4) and (2, 6), not {pair}")
    k = int(q) // 2
    fld = surface.field
    split_diagonal = surface.kind == SurfaceKind.CONE and k == 2
    a_count = surface_sum_max(surface, k, exclude_zero=split_diagonal, budget=budget)
    effective = a_count + int(split_diagonal)
    value = (effective * fld.order**surface.n) ** (1.0 / (2 * k)) / math.sqrt(surface.size)
    return _base_cert(
        surface, "upper", "even_counting", p, q, value,
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


def _abs2(z: np.ndarray) -> np.ndarray:
    return (z * z.conj()).real


def _power0(x: np.ndarray, e: float) -> np.ndarray:
    """x^e for x >= 0, with 0 wherever x = 0 and e < 0 (0^e is infinite there)."""
    if e >= 0:
        return x**e
    out = np.zeros_like(x)
    np.power(x, e, out=out, where=x > 0)
    return out


def _point_mass(z: np.ndarray) -> np.ndarray:
    """Row-wise: the unit-modulus point mass at the largest |z|, with z's phase there."""
    out = np.zeros_like(z)
    rows = np.arange(len(z))
    i = np.argmax(np.abs(z), axis=1)
    out[rows, i] = _phase(z[rows, i])
    return out


def _root(x: np.ndarray, e: float) -> np.ndarray:
    """x^e entry by entry through scalar pow: numpy's vectorized pow can round
    differently in the last bit, and these per-row scalars feed the
    convergence test."""
    return np.array([float(v) ** e for v in x])


def _power_ascent(surface, p, q, g0, max_iters, tol):
    """Alternate g -> Eg -> dual of Eg in L^q -> E* -> dual in L^p(dsigma).

    g0 is a (B, |S|) block of starts, advanced together: one extension, one
    ratio per row and one adjoint per iteration.  A row leaves the block when
    its ratio settles, so each row follows exactly the path it would follow
    alone; B = 1 is the plain serial loop.  Both duals are signed powers
    |z|^a phase(z), computed as (|z|^2)^{(a-1)/2} z so zeros map to 0.  The
    grid-side dual omits its positive factor ||Eg||_q^{1-q}, because the
    surface-side renormalization to unit L^p(dsigma) norm is scale-invariant.
    The grid side stays in the rotated (head, row, last) layout that
    ``_extend_rows`` returns and ``_adjoint_rows`` takes, so each row's
    ratio sums over axes 0 and 2.

    Returns per row the final g, the last settled ratio (0 if none), the
    iteration count and whether the row converged.  Only private helpers run
    here, so blocks may run off the main thread.
    """
    m = surface.size
    qf = as_float(q)
    pf = as_float(p)
    grid_exp = (qf - 2.0) / 2.0  # |u|^{q-1} phase(u) = (|u|^2)^{(q-2)/2} u
    if 1 < pf < math.inf:
        surf_exp = (2.0 - pf) / (2.0 * (pf - 1.0))  # |w|^{1/(p-1)} phase(w)
        norm_exp = pf / (2.0 * (pf - 1.0))  # |g|^p = (|w|^2)^{p/(2(p-1))}

    def renorm(w):
        if 1 < pf < math.inf:
            a2 = _abs2(w)
            g = _power0(a2, surf_exp) * w
            nrm = _root((a2**norm_exp).sum(axis=1) / m, 1.0 / pf)
        elif pf == math.inf:
            g = _phase(w)
            nrm = np.abs(g).max(axis=1)
        else:
            g = _point_mass(w)
            nrm = np.mean(np.abs(g), axis=1)
        zero = nrm == 0
        if zero.any():
            nrm[zero] = 1.0
            g[zero] = 1.0
        return g / nrm[:, None]

    g = renorm(np.asarray(g0, dtype=np.complex128))
    width = len(g)
    final = np.empty_like(g)
    value = np.full(width, -math.inf)
    iters = np.zeros(width, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)
    rows = np.arange(width)  # the original row of each live row of g
    prev = value.copy()
    it = 0
    for it in range(1, max_iters + 1):
        u = _extend_rows(surface, g)  # (head, row, last)
        if qf == math.inf:
            ratio = np.abs(u).max(axis=(0, 2))
        else:
            a2 = _abs2(u)
            t = _power0(a2, grid_exp)
            ratio = _root(np.einsum("hbl,hbl->b", t, a2), 1.0 / qf)
        settled = np.abs(ratio - prev) <= tol * np.maximum(1.0, ratio)
        if settled.any():
            done = rows[settled]
            final[done], value[done] = g[settled], prev[settled]
            iters[done], converged[done] = it, True
            going = ~settled
            rows, g, u, ratio, prev = rows[going], g[going], u[:, going], ratio[going], prev[going]
            if not len(rows):
                break
            if qf != math.inf:
                t = t[:, going]
        prev = ratio
        if qf == math.inf:
            dual = _point_mass(u.transpose(1, 0, 2).reshape(len(rows), -1))
            dual = dual.reshape(len(rows), len(u), -1).transpose(1, 0, 2)
        elif qf == 1:
            dual = _phase(u)  # sign(u), and 1 where u = 0
        else:
            dual = t * u
        g = renorm(_adjoint_rows(surface, dual))
    final[rows], value[rows], iters[rows] = g, prev, it
    return final, np.where(value > -math.inf, value, 0.0), iters, converged


def _starts(m: int, restarts: int, seed: int) -> np.ndarray:
    """The (restarts, m) block of starts: the constant, a point mass, then
    random unit phases with per-restart seed = seed + index."""
    g0 = np.empty((restarts, m), dtype=np.complex128)
    for idx in range(restarts):
        if idx == 0:
            g0[idx] = 1.0
        elif idx == 1:
            g0[idx] = 0.0
            g0[idx, 0] = 1.0
        else:
            g0[idx] = np.exp(2j * np.pi * np.random.default_rng(seed + idx).random(m))
    return g0


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _ascent_workers(tasks: int) -> int:
    """Threads for ``tasks`` independent ascent rows or blocks: min(CPUs, tasks)
    when BLAS is pinned to one thread, else one.

    Pinned means OPENBLAS_NUM_THREADS is 1 or, when it is unset,
    OMP_NUM_THREADS is 1.  A multithreaded BLAS's own threads contend with the
    ascent's, and two ascent threads then ran slower than one.
    """
    pinned = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", ""))
    return min(_cpu_count(), tasks) if pinned.strip() == "1" else 1


def _power_blocks(restarts: int, width: int, workers: int) -> list[slice]:
    """The stacked blocks of ``restarts`` rows of ``width`` grid entries each
    for ``workers`` threads.

    A thread's share is ceil(restarts / workers) rows.  A block holds the
    share, cut to POWER_BLOCK_CAP entries and raised to POWER_BLOCK_ENTRIES,
    and at least one row: each thread gets one block when its share holds at
    least POWER_BLOCK_ENTRIES entries, and a smaller run stays in one block.
    """
    share = -(-restarts // workers) * width
    return list(
        blocks(restarts, width, entries=min(share, POWER_BLOCK_CAP), floor=POWER_BLOCK_ENTRIES)
    )


def rstar_lower_power(
    surface: SurfaceMeasure,
    p,
    q,
    *,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> NormCertificate:
    """Lower bound via alternating dual-norm ascent from multiple starts.

    Restart 0 is the constant, restart 1 a point mass, the rest random unit
    phases with per-restart seed = seed + index.  Whatever the optimizer
    does, the reported value is the best witness's ratio recomputed through
    the transform plan; ``verify_lower`` re-evaluates it by direct summation,
    so a rechecked certificate is a true lower bound within the 1e-9 recheck
    tolerance.  Ties across restarts break toward the lowest index.

    The thread count W comes first: one thread per CPU this process may use
    when BLAS is pinned to one thread (``_ascent_workers``), else the calling
    thread alone.  The restarts then run as stacked blocks of
    ``_power_blocks``: each thread gets one block of ceil(restarts / W) rows
    when that share holds at least POWER_BLOCK_ENTRIES grid entries, no block
    holds more than POWER_BLOCK_CAP entries unless a single row does, and a
    smaller run stays in one block on the calling thread.  Each iteration's
    extension lifts the surface into the grid by ``_extend_rows``, which writes
    the points alone on their head once and sums only the points that share a
    head.  Every row follows its own serial path, so the iteration counts and
    the chosen restart depend on neither the block width nor the thread count.

    ``max_iters`` below 1 and a negative or NaN ``tol`` are refused, and so are
    restarts * |S| start entries above ``budget``, all before any plan or start
    is built.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_iters < 1:
        raise FFLabError(f"need at least one iteration, got {max_iters}")
    if not tol >= 0:
        raise FFLabError(f"need a tolerance >= 0, got {tol}")
    require_budget(restarts * surface.size, budget, "ascent start entries restarts |S|")
    _transform_plan(surface)  # lazy caches and budget refusals, before any worker
    g0 = _starts(surface.size, restarts, seed)
    width = surface.field.order**surface.n
    workers = _ascent_workers(restarts)
    stacks = [g0[rows] for rows in _power_blocks(restarts, width, workers)]

    def ascend(block):
        return _power_ascent(surface, p, q, block, max_iters, tol)

    workers = min(workers, len(stacks))
    if workers == 1:
        parts = [ascend(block) for block in stacks]
    else:
        # imported here: concurrent.futures (and the logging it loads) would
        # add about 7 ms to every fflab import, most of which never ascend
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(ascend, stacks))
    gs, vals, iters, convs = (np.concatenate(col) for col in zip(*parts))
    idx = 0
    for i in range(1, restarts):
        if vals[i] > vals[idx] + 1e-15:
            idx = i
    return _surface_lower(
        SurfaceFunction(surface, gs[idx]), p, q, extension, "power_iteration",
        {
            "seed": seed,
            "restarts": restarts,
            "max_iters": max_iters,
            "tol": tol,
            "best_restart": idx,
            "iterations": int(iters[idx]),
            "converged": bool(convs[idx]),
            "restart_iterations": [int(i) for i in iters],
            "restarts_converged": int(convs.sum()),
            "transform_value": float(vals[idx]),
        },
    )


# -- the one certificate path ----------------------------------------------------------

# The producers ``certify`` runs by method name, in the order "auto" tries them.
# Each entry looks its producer up in this module when called, so a rebound
# module attribute (the benchmark tracer's wrapper, a test's stub) is the one that runs.
PRODUCERS: dict[str, Callable[..., NormCertificate]] = {
    "closed": lambda surface, p, q, run: rstar_exact_closed(surface, p, q),
    "even": lambda surface, p, q, run: rstar_upper_even(surface, p, q, run["budget"]),
    "power": lambda surface, p, q, run: rstar_lower_power(surface, p, q, **run),
}


def certify(
    surface: SurfaceMeasure, p, q, *, method: str = "auto", restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL, seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[NormCertificate | BudgetExceededError]:
    """Yield the certificates of R*(p -> q) from PRODUCERS, one producer at a time.

    "auto" runs them in order, skips one that refuses the pair with
    NoClosedFormError and stops after the first Exact certificate; another
    method runs its producer alone, and its NoClosedFormError propagates.  A
    producer over ``budget`` is yielded as its BudgetExceededError: a caller
    that raises it ends the generator before the next producer starts.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    run = {"restarts": restarts, "max_iters": max_iters, "tol": tol, "seed": seed, "budget": budget}
    for name in PRODUCERS if method == "auto" else (method,):
        if name not in PRODUCERS:
            raise FFLabError(f"no certificate method named {name!r}")
        try:
            cert = PRODUCERS[name](surface, p, q, run)
        except NoClosedFormError:
            if name == method:
                raise
            continue
        except BudgetExceededError as exc:
            cert = exc
        yield cert
        if isinstance(cert, NormCertificate) and cert.kind == "exact":
            return


# -- explicit witnesses --------------------------------------------------------------


def find_affine_line(surface: SurfaceMeasure):
    """The line {0 + tb} inside a named surface, built from its equation.

    Paraboloid: b = (w, 0) with w != 0 and w.w = 0 (a quadratic in t that
    vanishes on F has zero coefficients), w = (1, i) when -1 = i^2, else
    (1, x, y) with x the first element that leaves -1 - x^2 = y^2 a square.
    Double paraboloid: the theta axis at eta = 0.  Moment curve at n = 1: F.
    """
    fld, n = surface.field, surface.n
    b = np.zeros(n, dtype=np.int64)
    if surface.kind == SurfaceKind.PARABOLOID:
        t = np.arange(fld.order, dtype=np.int64)
        squares = fld.mul_arrays(t, t)
        rest = fld.sub_arrays(fld.minus_one, squares)  # -1 - x^2 at x = t
        x = int(fld.squares[rest].argmax())  # 0 exactly when -1 is a square
        y = int(t[squares == rest[x]][0])
        w = [1, y] if x == 0 else [1, x, y]
        if len(w) < n:
            b[: len(w)] = w
        reason = f"no nonzero w in F^{n - 1} has w.w = 0"
    elif surface.kind == SurfaceKind.DOUBLE_PARABOLOID:
        b[n // 2] = 1  # (eta, eta.eta, theta, eta.theta) at eta = 0, theta = t e_1
    elif surface.kind == SurfaceKind.MOMENT_CURVE:
        b[0] = int(n == 1)  # the curve at n = 1 is all of F
        reason = "a moment curve at n >= 2 meets a line in at most 2 points"
    elif surface.kind == SurfaceKind.CONE:
        reason = "the cone's lines all pass through its excluded vertex"
    else:
        reason = "a custom point list has no line construction"
    if not b.any():
        raise FFLabError(f"no affine line inside the surface: {reason}")
    return np.zeros(n, dtype=np.int64), b


def rstar_lower_witness(surface: SurfaceMeasure, p, q, name: str) -> NormCertificate:
    """Lower bound from a named explicit witness.

    dirac and constant test the extension directly; subspace uses the
    indicator of the affine line that find_affine_line builds on the surface;
    dual_cone_X tests the dual form with the half-dimension set X whose
    transform is large on the cone.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    fld = surface.field
    if name == "dual_cone_X":
        if surface.kind != SurfaceKind.CONE:
            raise FFLabError("the dual set witness lives on the cone")
        x_set = cone_counterexample_set(fld)
        f = indicator_grid(fld, 3, x_set, Side.SPACE)
        return _base_cert(
            surface, "lower", "witness", p, q, _space_ratio(f, surface, p, q, extension_adjoint),
            witness=grid_to_bytes(f),
            meta={
                "witness_form": "space_indicator",
                "witness_name": name,
                "set_size": int(len(x_set)),
            },
        )
    if name == "dirac":
        g = SurfaceFunction.delta(surface)
        closed = surface.size ** (1.0 / as_float(p) - 1.0) * float(fld.order) ** (
            surface.n / as_float(q)
        )
        extra = {"closed_form": closed}
    elif name == "constant":
        g = SurfaceFunction.constant(surface)
        extra = {}
    elif name == "subspace":
        a, b = find_affine_line(surface)
        g = SurfaceFunction(surface, np.isin(surface.flat, affine_flats(fld, a, b)))
        # E1_L(x) = e(x.a) (|F|/|S|) 1[x.b = 0] for every line L on S
        closed = (fld.order / surface.size) ** (1 - 1 / as_float(p)) * fld.order ** (
            (surface.n - 1) / as_float(q)
        )
        extra = {"line_base": a.tolist(), "line_dir": b.tolist(), "closed_form": closed}
    else:
        raise FFLabError(f"no witness named {name!r}")
    return _surface_lower(g, p, q, extension, "witness", {"witness_name": name, **extra})


def recheck_lower(cert: NormCertificate) -> float:
    """Recompute a Lower certificate's ratio through the direct-summation path.

    The fast transform is deliberately avoided so a transform bug cannot
    confirm itself.
    """
    if cert.kind != "lower" or cert.witness is None:
        raise FFLabError("only witness-bearing lower certificates can be rechecked")
    surface = rebuild_surface(cert)
    form = cert.meta.get("witness_form", "surface_function")
    if form == "surface_function":
        g = SurfaceFunction(surface, np.frombuffer(cert.witness, dtype="<c16").copy())
        return _surface_ratio(g, cert.p, cert.q, extension_direct)
    if form == "space_indicator":
        f = grid_from_bytes(cert.witness)
        return _space_ratio(f, surface, cert.p, cert.q, restriction_direct)
    raise FFLabError(f"unknown witness form {form!r}")


def verify_lower(cert: NormCertificate) -> bool:
    return recheck_agrees(cert, recheck_lower(cert))


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
        ratio = n / d  # each coefficient prints as one reduced fraction
        items: list[tuple[str, Callable[[Exponent, Exponent], bool]]] = [
            (f"q >= 2n/d = {2 * ratio}", lambda p, q: q >= 2 * ratio),
            (f"q >= ({ratio}) p'", lambda p, q: q >= ratio * holder_dual(p)),
        ]
        if self.k_subspace is not None:
            k = self.k_subspace
            coeff = Fraction(n - k) / (d - k)
            items.append(
                (
                    f"q >= ({coeff}) p'  [contains a {k}-subspace]",
                    lambda p, q: q >= coeff * holder_dual(p),
                )
            )
        return items


# -- self-dot incidences ---------------------------------------------------------------


def selfdot_incidence_count(
    field: Field, points: np.ndarray, budget: int = DEFAULT_BUDGET
) -> IncidenceReport:
    """Count pairs (xi, eta) in P x P with xi.eta = xi.xi, P in F^2.

    Each xi != 0 contributes the line {eta : xi.eta = xi.xi} = {xi + t xi^perp},
    xi^perp = (-xi_2, xi_1), distinct when -1 is a non-square (else xi.xi can
    vanish), so incidence_count counts them; budget caps their |P| |F| points
    before the first field operation.
    """
    if field.is_square(field.minus_one):
        raise FFLabError("-1 is a square; the self-dot lines degenerate")
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (m, 2) array over F^2")
    require_budget(len(pts) * field.order, budget, "line points L |F|")
    perp = np.stack([field.neg_arrays(pts[:, 1]), pts[:, 0]], axis=1)  # 0 for xi = 0: refused
    return incidence_count(field, pts, pts, perp, budget=budget)


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
        raise FFLabError("expected a space-side grid on F^3")
    fld = g.field
    q = fld.order
    m = q * q
    if np.any(np.abs(g.values[m:]) > 0):
        raise FFLabError("grid must vanish off the bottom slice")
    surf = paraboloid(fld, 3)
    kern = bochner_riesz_kernel(surf)
    lhs = lp_norm(convolve(g, kern), 4) ** 4
    lift = SurfaceFunction(surf, float(m) * g.values[:m])
    u = extension(lift).values.reshape(m, q, order="F")
    rhs = float(np.sum(np.abs(u[:, 1:]) ** 4)) / float(q) ** 4
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0 else 0.0


# -- lift identities -------------------------------------------------------------------


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
    ys = field.grid_coords(n)
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
        # [theta, eta] in C order is the point-list index eta + |F|^{n-1} theta
        dots = field.dot_arrays(coords[x0map[neg_flat]][None, :, :], coords[:, None, :])
        vals = (np.sqrt(h[neg_flat]) * field.character[field.neg_arrays(dots)]).ravel()
        lhs = extension(SurfaceFunction(dsurf, vals)).values
        rhs = np.zeros_like(lhs)
        for eta_flat in range(m):
            nf = int(neg_flat[eta_flat])
            xline = field.character[field.dot_arrays(ys, surf.points[eta_flat])]
            x0, v = coords[x0map[nf]], field.neg_arrays(coords[eta_flat])
            yline = np.zeros(q**n, dtype=np.complex128)
            yline[line_flats(field, x0, v)] = 1.0  # the line (x0 + vt, t)
            rhs += math.sqrt(h[nf]) * np.multiply.outer(yline, xline).reshape(-1)
        rhs *= float(q) ** (1 - n)
        dev["line_sum"] = max(dev["line_sum"], _rel_dev(lhs, rhs))

    # (cap) frozen first parameter against a one-variable inverse transform
    for _ in range(trials):
        alpha_flat = int(rng.integers(0, m))
        alpha = coords[alpha_flat]
        cap_vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        vals = np.zeros(dsurf.size, dtype=np.complex128)
        vals[double_paraboloid_index(field, n, alpha_flat, np.arange(m))] = cap_vals
        lhs = extension(SurfaceFunction(dsurf, vals)).values
        hh = fourier_inverse(Grid(field, n - 1, cap_vals, Side.FREQUENCY)).values
        xphase = field.character[field.dot_arrays(ys, surf.points[alpha_flat])]
        w = field.add_arrays(ys[:, : n - 1], field.mul_arrays(ys[:, n - 1 :], alpha))
        hv = hh[flat_points(field, w)]
        rhs = float(q) ** (1 - n) * np.multiply.outer(hv, xphase).reshape(-1)
        dev["cap"] = max(dev["cap"], _rel_dev(lhs, rhs))
    return dev
