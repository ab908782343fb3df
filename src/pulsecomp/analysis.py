"""Sweep harness, power-law fitting, crossover location, and the
Magnus-expansion oracle for the correction block.

Sweeps are deterministic given a seed; random-sign assignments use the
counter-based Philox generator (numpy's Philox4x64-10 with the seed as
key) so sign patterns are reproducible and portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .pauli import Hamiltonian
from .sequences import (
    CompileCache,
    CompileError,
    ErrorAssignment,
    PulseSequence,
    compile_sequence,
    compile_stack,
    w_correction,
)
from .unitary import Unitary, evolve, fidelities, matrix_of

# Arc-based infidelities bottom out near the square of machine epsilon;
# anything below this is indistinguishable from rounding noise and is
# clamped and excluded from fits.
INFIDELITY_FLOOR = 1e-30


@dataclass(frozen=True)
class SweepRow:
    eps1: float
    eps2: Optional[float]
    infidelity: float
    sequence: str
    seed: Optional[int]
    signs: str


@dataclass(frozen=True)
class SweepResult:
    """Rows in grid order, and the worst unitarity defect of the compiled
    stack they were scored from (not written to the CSV)."""

    rows: tuple[SweepRow, ...]
    unitarity_defect: float

    def eps(self) -> np.ndarray:
        return np.array([r.eps1 for r in self.rows])

    def infidelities(self) -> np.ndarray:
        return np.array([r.infidelity for r in self.rows])

    def to_csv(self) -> str:
        lines = ["eps1,eps2,infidelity,sequence,seed,signs"]
        for r in self.rows:
            eps2 = f"{r.eps2:.17g}" if r.eps2 is not None else ""
            seed = str(r.seed) if r.seed is not None else ""
            lines.append(
                f"{r.eps1:.17g},{eps2},{r.infidelity:.17g},{r.sequence},{seed},{r.signs}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SlopeFit:
    exponent: float
    log_prefactor: float
    max_residual: float
    window: tuple[float, float]

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)


@dataclass(frozen=True)
class CrossoverReport:
    eps2_values: tuple[float, ...]
    eps1_star: tuple[float, ...]
    fitted_power: float


def infidelity_of(target: Unitary, stack: np.ndarray) -> list[float]:
    """Worst-case infidelity of each unitary of a (K, d, d) stack, clamped at 0
    (INFIDELITY_FLOOR applies only in fits)."""
    return [max(r.infidelity, 0.0) for r in fidelities(target, stack)]


def sweep(
    seq: PulseSequence,
    target: Unitary,
    errors_for: Callable[[float], ErrorAssignment],
    grid: Sequence[float],
    sequence_id: str = "",
    metric: Callable[[Unitary, np.ndarray], Sequence[float]] = infidelity_of,
    eps2: Optional[float] = None,
    cache: Optional[CompileCache] = None,
) -> SweepResult:
    """Compile the sequence at every error magnitude as one stack and record infidelity.

    ``errors_for`` maps a grid magnitude to a full assignment, whose
    ``seed`` and ``signs`` fill the row's columns.  All assignments are
    drawn first and compiled in one walk (``compile_stack``); a
    CompileError names the first magnitude at fault.  ``metric(target,
    stack)`` scores the whole (K, d, d) stack and returns K values, one
    per grid point; it defaults to the full-space worst-case infidelity.
    Grid points must be finite, positive and ascending.
    """
    pts = list(grid)
    bad = [e for e in pts if not math.isfinite(e)]
    if bad:
        raise ValueError(f"grid point {bad[0]} is not finite")
    if any(e <= 0 for e in pts) or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be positive and strictly ascending")
    points = [errors_for(eps) for eps in pts]
    try:
        stack, defect = compile_stack(seq, points, cache)
    except CompileError as exc:
        raise CompileError(f"at eps = {pts[exc.point]:g}: {exc}") from exc
    rows = tuple(
        SweepRow(eps, eps2, value, sequence_id, errs.seed, errs.signs)
        for eps, errs, value in zip(pts, points, metric(target, stack))
    )
    return SweepResult(rows, defect)


def fit_slope(
    eps: Iterable[float],
    infid: Iterable[float],
    window: Optional[tuple[float, float]] = None,
) -> SlopeFit:
    """Least-squares power-law fit on (log eps, log infidelity).

    Points below the infidelity floor are excluded; at least 4 usable
    points are required.  ``max_residual`` is the largest absolute
    deviation in log space, useful for flagging regime mixtures.
    """
    e = np.asarray(list(eps), dtype=float)
    y = np.asarray(list(infid), dtype=float)
    if window is None:
        window = (float(e.min()), float(e.max()))
    lo, hi = window
    keep = (e >= lo * (1 - 1e-12)) & (e <= hi * (1 + 1e-12)) & (y > INFIDELITY_FLOOR)
    e, y = e[keep], y[keep]
    if e.size < 4:
        raise ValueError(f"need >= 4 points in window [{lo:g}, {hi:g}], have {e.size}")
    lx, ly = np.log(e), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return SlopeFit(
        exponent=float(slope),
        log_prefactor=float(intercept),
        max_residual=float(np.abs(resid).max()),
        window=(lo, hi),
    )


def fit_sweep(result: SweepResult, window: Optional[tuple[float, float]] = None) -> SlopeFit:
    return fit_slope(result.eps(), result.infidelities(), window)


def magnus_m3(phi: float, h1: Hamiltonian, h2: Hamiltonian) -> Hamiltonian:
    """Leading Magnus correction of the three-pulse correction block."""
    c1 = (2.0 * math.pi**3 / 3.0) * math.cos(phi) * math.sin(phi) ** 2
    c2 = 2.0 * math.pi**3 * math.cos(phi) ** 2 * math.sin(phi)
    return c1 * h1 + c2 * h2


def correction_unitary(phi: float, eps: float, h1: Hamiltonian, h2: Hamiltonian) -> Unitary:
    """The compiled three-pulse correction block at shared error eps."""
    seq = w_correction(phi, h1, h2, "a", "b")
    return compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], eps))


def magnus_residual(phi: float, eps: float, h1: Hamiltonian, h2: Hamiltonian) -> float:
    """Norm of the correction block minus its third-order Magnus model.

    The model is U1(-eps*theta) (I + i eps^3 M3) with theta = -4 pi cos(phi);
    the residual scales as eps^4.
    """
    t = correction_unitary(phi, eps, h1, h2).matrix
    theta = -4.0 * math.pi * math.cos(phi)
    u1 = evolve([(-eps * theta, 0.0, h1)]).matrix
    m3 = matrix_of(magnus_m3(phi, h1, h2))
    model = u1 @ (np.eye(t.shape[0]) + 1j * eps**3 * m3)
    return float(np.linalg.norm(t - model, ord=2))


def random_sign_assignment(
    seed: int,
    labels: Sequence[str],
    magnitude: float,
    correlated_pair: Optional[tuple[str, str]] = None,
    groups: tuple[frozenset[str], ...] = (),
) -> ErrorAssignment:
    """Equal-magnitude errors with seeded random signs.

    Signs come from one Philox draw per label, taken in sorted label
    order; the correlated pair shares the draw of its first-sorted member.
    The realized pattern (sorted label order) is recorded in ``signs``.
    """
    if not 0 <= magnitude < math.inf:
        raise ValueError(f"magnitude must be finite and >= 0, got {magnitude!r}")
    ordered = sorted(set(labels))
    rng = np.random.Generator(np.random.Philox(key=seed))
    pair = frozenset(correlated_pair) if correlated_pair else frozenset()
    draws: dict[str, float] = {}
    for label in ordered:
        if label in pair and any(p in draws for p in pair):
            rep = next(p for p in sorted(pair) if p in draws)
            draws[label] = draws[rep]
            continue
        draws[label] = 1.0 if rng.integers(0, 2) == 1 else -1.0
    values = {l: draws[l] * magnitude for l in ordered}
    signs = "".join("+" if draws[l] > 0 else "-" for l in ordered)
    all_groups = tuple(groups) + ((pair,) if pair else ())
    return ErrorAssignment(values, groups=all_groups, seed=seed, signs=signs)


# local_slope's step; locate_crossover's scan range and points, target slope and bracket.
_SLOPE_STEP = 1.15
_CROSSOVER_LO, _CROSSOVER_HI, _CROSSOVER_POINTS = 1e-8, 0.05, 25
_CROSSOVER_SLOPE, _CROSSOVER_BRACKET = 4.0, 1.2


def local_slope(infid_fn: Callable[[float], float], eps: float) -> float:
    """Two-point log-log slope of infid_fn around eps."""
    lo, hi = infid_fn(eps / _SLOPE_STEP), infid_fn(eps * _SLOPE_STEP)
    if lo <= INFIDELITY_FLOOR or hi <= INFIDELITY_FLOOR:
        return float("nan")
    return math.log(hi / lo) / (2.0 * math.log(_SLOPE_STEP))


def locate_crossover(infid_fn: Callable[[float], float]) -> Optional[float]:
    """Error magnitude where the local log-log slope crosses 4.

    The slope transitions from 2 to 6 as the error grows; bisection in log
    space narrows the crossing to within ``_CROSSOVER_BRACKET``.  Returns
    None when no slope change is found in range.
    """
    grid = np.geomspace(_CROSSOVER_LO, _CROSSOVER_HI, _CROSSOVER_POINTS)
    slopes = [local_slope(infid_fn, e) for e in grid]
    bracket = None
    for (e1, s1), (e2, s2) in zip(zip(grid, slopes), zip(grid[1:], slopes[1:])):
        if math.isnan(s1) or math.isnan(s2):
            continue
        if (s1 - _CROSSOVER_SLOPE) * (s2 - _CROSSOVER_SLOPE) < 0:
            bracket = (e1, e2)
            break
    if bracket is None:
        return None
    a, b = bracket
    sa = local_slope(infid_fn, a) - _CROSSOVER_SLOPE
    while b / a > _CROSSOVER_BRACKET:
        mid = math.sqrt(a * b)
        sm = local_slope(infid_fn, mid) - _CROSSOVER_SLOPE
        if math.isnan(sm):
            return None
        if sa * sm <= 0:
            b = mid
        else:
            a, sa = mid, sm
    return math.sqrt(a * b)


def crossover_power(
    infid_fn2: Callable[[float, float], float],
    eps2_values: Sequence[float],
) -> CrossoverReport:
    """Fit the power of the crossover location against the fixed error.

    ``infid_fn2(eps1, eps2)`` evaluates the sequence infidelity; each
    eps2 yields one crossover eps1*, and the exponent comes from a
    log-log least squares over the pairs.
    """
    stars = []
    for eps2 in eps2_values:
        star = locate_crossover(lambda e1: infid_fn2(e1, eps2))
        if star is None:
            raise ValueError(f"no crossover found for eps2 = {eps2:g}")
        stars.append(star)
    power = float(
        np.polyfit(np.log(np.asarray(eps2_values)), np.log(np.asarray(stars)), 1)[0]
    )
    return CrossoverReport(tuple(eps2_values), tuple(stars), power)
