"""Frontier-crawl simulation and population-size estimation from crawl traces.

A crawl processes one discovered node at a time and discovers its unseen
neighbors. With P nodes processed and D discovered-but-unprocessed, the
undiscovered mass is roughly D times the average number of fresh links per
processed node, giving the running size estimate

    size ~= P + D + (D' + 1) * D

where D' is the smoothed slope of D against P. The same balance, stated as a
differential equation D*D'' + (D' + 1)^2 = 0, conserves that size expression
along its trajectories; a rational-function fit of D(P) gives a smooth closed
form for the discovery curve.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Graph, InputError
from .stats import _line_fits

__all__ = [
    "CrawlTrace",
    "SizeEstimate",
    "RationalFit",
    "OdeSolution",
    "simulate_crawl",
    "estimate_derivative",
    "estimate_size",
    "fit_rational",
    "solve_acquisition_ode",
    "write_trace_csv",
    "read_trace_csv",
    "TraceParseError",
    "default_window",
]

POLICIES = ("fifo", "random")

# the most Runge-Kutta steps solve_acquisition_ode takes; at 10**7 a run already takes
# about a minute and 1.2 GB, held by its three lists of floats
_MAX_ODE_STEPS = 10**7


class TraceParseError(InputError):
    """Raised for malformed trace CSV rows; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class CrawlTrace:
    """Sampled (processed, discovered) series of one crawl.

    p[i] is the processed count at sample i, d[i] the frontier size at that
    moment. The final state is always included. ``complete`` is False when the
    crawl exhausted only the start node's component.
    """

    p: tuple[int, ...]
    d: tuple[int, ...]
    policy: str
    stride: int
    seed: int
    start: int
    true_size: int
    complete: bool

    def __post_init__(self):
        if len(self.p) != len(self.d):
            raise ValueError("p and d must have equal length")
        if any(b <= a for a, b in zip(self.p, self.p[1:])):
            raise ValueError("processed counts must be strictly increasing")

    @property
    def samples(self) -> int:
        return len(self.p)


def simulate_crawl(
    g: Graph,
    start: int = 0,
    policy: str = "fifo",
    stride: int = 1,
    seed: int = 0,
) -> CrawlTrace:
    """Crawl ``g`` from ``start`` and record the discovery trace.

    Both policies run one frontier loop and differ only in which frontier
    node they process next: "fifo" takes the oldest (breadth-first),
    "random" a uniformly random member (seeded). The trace is sampled every
    ``stride`` processed nodes, plus the final state.
    """
    n = g.node_count
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range 0..{n - 1}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rng = random.Random(seed)
    seen = bytearray(n)
    seen[start] = 1
    processed = head = 0
    ps, ds = [], []
    # one int object per node, shared by all rows: quicker to make and to walk than indices.tolist()
    ptr, nbrs = g.indptr.tolist(), np.arange(n).astype(object)[g.indices].tolist()
    unseen = n - 1
    pool: list[int] = [start]  # the frontier is pool[head:]
    while head < len(pool):
        if policy == "fifo":
            u = pool[head]
            head += 1
        else:
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            u = pool.pop()
        processed += 1
        if unseen:  # once every node is found, no row can add to the pool
            for w in nbrs[ptr[u] : ptr[u + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    pool.append(w)
                    unseen -= 1
        if processed % stride == 0:
            ps.append(processed)
            ds.append(len(pool) - head)
    if not ps or ps[-1] != processed:
        ps.append(processed)
        ds.append(0)
    return CrawlTrace(
        p=tuple(ps),
        d=tuple(ds),
        policy=policy,
        stride=stride,
        seed=seed,
        start=start,
        true_size=n,
        complete=processed == n,
    )


def default_window(trace: CrawlTrace) -> int:
    """Default smoothing window: 1% of the trace length, at least 25 samples."""
    return max(25, trace.samples // 100)


def estimate_derivative(trace: CrawlTrace, window: int | None = None) -> np.ndarray:
    """Trailing-window least-squares slope of D against P at every sample.

    Entries before the window first fills are NaN. The window is a sample
    count; the default is ``default_window(trace)``. Raises ValueError when a
    window's slope is not finite (its P values too large for their spread).
    """
    w = default_window(trace) if window is None else window
    if w < 2:
        raise ValueError("window must be >= 2 samples")
    p = np.asarray(trace.p, dtype=np.float64)
    d = np.asarray(trace.d, dtype=np.float64)
    m = p.size
    out = np.full(m, np.nan)
    if m < w:
        return out
    ends = np.arange(w - 1, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[ends] = _line_fits(p, d, np.ones(m), ends - (w - 1), ends)[0]
    if not np.isfinite(out[ends]).all():
        raise ValueError(f"slope of D against P over {w} samples is not finite: P too large for its spread")
    return out


@dataclass(frozen=True)
class SizeEstimate:
    """Running size estimates along a trace.

    size[i] = p[i] + d[i] + link_rate[i] * d[i], with link_rate = D' + 1
    clamped at zero (clamped[i] marks samples where the raw rate was negative).
    Samples before the smoothing window fills are NaN.
    """

    p: np.ndarray
    d: np.ndarray
    dprime: np.ndarray
    link_rate: np.ndarray
    size: np.ndarray
    clamped: np.ndarray
    window: int

    @property
    def final(self) -> float:
        finite = self.size[np.isfinite(self.size)]
        if finite.size == 0:
            raise ValueError("no sample had a full smoothing window")
        return float(finite[-1])


def estimate_size(trace: CrawlTrace, window: int | None = None) -> SizeEstimate:
    """Size estimate at every sample of ``trace`` (NaN until the window fills); |P|, |D| <= 2**53."""
    if max(map(abs, trace.p + trace.d), default=0) > 2**53:
        raise ValueError("|P| and |D| must not exceed 2**53: float64 cannot hold every integer above it")
    w = default_window(trace) if window is None else window
    dprime = estimate_derivative(trace, w)
    p = np.asarray(trace.p, dtype=np.float64)
    d = np.asarray(trace.d, dtype=np.float64)
    rate = dprime + 1.0
    clamped = rate < 0
    rate_eff = np.where(clamped, 0.0, rate)
    size = p + d + rate_eff * d
    return SizeEstimate(
        p=p,
        d=d,
        dprime=dprime,
        link_rate=rate,
        size=size,
        clamped=clamped & np.isfinite(dprime),
        window=w,
    )


@dataclass(frozen=True)
class RationalFit:
    """D(P) ~= a0 * P * (P^2 + a1*P + a2) / (P^2 + a3*P + a4)."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    rmse: float
    p_min: float
    p_max: float

    def evaluate(self, p: Iterable[float] | np.ndarray) -> np.ndarray:
        q = np.asarray(p, dtype=np.float64)
        num = self.a0 * q * (q * q + self.a1 * q + self.a2)
        den = q * q + self.a3 * q + self.a4
        return num / den


def fit_rational(trace: CrawlTrace) -> RationalFit:
    """Least-squares rational-curve fit of D against P over the whole trace.

    A linearized solve (D * P^2 = a0*P^3 + a0*a1*P^2 + a0*a2*P - a3*D*P -
    a4*D, minimum-norm least squares) seeds the fit, so exactly representable
    traces (for example a linear decay) come back with near-zero RMSE even
    when the system is rank deficient. That linearization implicitly weights
    every sample by its denominator value, which can badly skew the fit on
    noisy traces, so the seed is refined with denominator-reweighted linear
    solves, a deterministic multistart over pinned pole-free denominators, and
    damped Gauss-Newton steps on the true residuals. The candidate with the
    smallest RMSE whose denominator has no real root inside the fitted P range
    wins. The fit is rejected when the seed solve is not finite or degenerate
    (leading coefficient ~ 0), and when every pole-free candidate is an order
    of magnitude worse than the unconstrained best -- the data itself then
    demands a pole inside the range.

    Requires at least 20 samples.
    """
    if trace.samples < 20:
        raise ValueError(f"need at least 20 samples to fit, got {trace.samples}")
    p = np.asarray(trace.p, dtype=np.float64)
    d = np.asarray(trace.d, dtype=np.float64)
    p_min, p_max = float(p.min()), float(p.max())
    ps = p.max()
    dsc = d.max() if d.max() > 0 else 1.0
    q = p / ps
    q2, q3 = q**2, q**3
    e = d / dsc
    a = np.column_stack([q3, q2, q, -e * q, -e])
    y = e * q * q

    def unscale(theta):
        """Map scaled coefficients back; None when the fit degenerates."""
        c0, c1, c2, c3, c4 = (float(t) for t in theta)
        if abs(c0) < 1e-12 * max(1.0, abs(c1), abs(c2)):
            return None
        return (dsc * c0 / ps, (c1 / c0) * ps, (c2 / c0) * ps * ps, c3 * ps, c4 * ps * ps)

    def in_range_root(a3: float, a4: float):
        disc = a3 * a3 - 4.0 * a4
        if disc < 0:
            return None
        r = np.sqrt(disc)
        for root in ((-a3 - r) / 2.0, (-a3 + r) / 2.0):
            if p_min <= root <= p_max:
                return root
        return None

    def curve(theta) -> tuple[np.ndarray, np.ndarray]:
        """The scaled numerator and denominator at every sample."""
        return theta[0] * q3 + theta[1] * q2 + theta[2] * q, q2 + theta[3] * q + theta[4]

    def residuals(theta) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            num, den = curve(theta)
            return num / den - e

    def rmse_of(r: np.ndarray) -> float:
        return float(np.sqrt(np.mean(r * r))) if np.all(np.isfinite(r)) else float("inf")

    theta0, *_ = np.linalg.lstsq(a, y, rcond=None)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("singular fit; supply more (or more varied) samples")
    if unscale(theta0) is None:
        raise ValueError("degenerate fit (leading coefficient ~ 0); supply more samples")

    candidates = [theta0]
    theta = theta0
    for _ in range(12):
        # reweighting by the current denominator turns the equation error
        # into (approximately) the true residual
        w = np.maximum(np.abs(curve(theta)[1]), 1e-8)
        theta_new, *_ = np.linalg.lstsq(a / w[:, None], y / w, rcond=None)
        if not np.all(np.isfinite(theta_new)):
            break
        candidates.append(theta_new)
        if np.allclose(theta_new, theta, rtol=1e-12, atol=1e-15):
            break
        theta = theta_new

    jac = np.empty((len(q), 5), order="F")

    def gauss_newton(theta: np.ndarray) -> None:
        r = residuals(theta)
        cur = rmse_of(r)
        if not np.isfinite(cur):
            return
        for _ in range(40):
            num, den = curve(theta)
            den2 = den * den
            for col, top, bottom in zip(jac.T, (q3, q2, q, -num * q, -num), (den, den, den, den2, den2)):
                np.divide(top, bottom, out=col)
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                return
            scale = 1.0
            for _ in range(20):
                trial = theta + scale * step
                r_trial = residuals(trial)
                if rmse_of(r_trial) < cur:
                    theta, r, cur = trial, r_trial, rmse_of(r_trial)
                    candidates.append(trial)
                    break
                scale *= 0.5
            else:
                return
            if float(np.linalg.norm(scale * step)) <= 1e-14 * (1.0 + float(np.linalg.norm(theta))):
                return

    # polish both basins: the raw seed and the best reweighted iterate
    reweighted_best = min(candidates, key=lambda t: rmse_of(residuals(t)))
    gauss_newton(theta0)
    if reweighted_best is not theta0:
        gauss_newton(reweighted_best)

    # deterministic multistart: pin a pole-free denominator, solve the
    # numerator linearly against the true residual, then polish; this reaches
    # basins the equation-error seed cannot
    for c3, c4 in ((0.0, 0.25), (1.0, 0.5), (0.2, 0.05), (0.5, 0.01), (0.05, 1e-3), (0.02, 1e-4)):
        den = curve((0.0, 0.0, 0.0, c3, c4))[1]
        coef, *_ = np.linalg.lstsq(np.column_stack([q3 / den, q2 / den, q / den]), e, rcond=None)
        if np.all(np.isfinite(coef)):
            seed = np.array([coef[0], coef[1], coef[2], c3, c4])
            candidates.append(seed)
            gauss_newton(seed)

    scored = []  # (RMSE in units of D, in-range denominator root or None, coefficients)
    for t in candidates:
        coeffs = unscale(t) if np.all(np.isfinite(t)) else None
        if coeffs is not None:
            resid = d - RationalFit(*coeffs, rmse=0.0, p_min=p_min, p_max=p_max).evaluate(p)
            rmse = float(np.sqrt(np.mean(resid * resid)))
            if np.isfinite(rmse):
                scored.append((rmse, in_range_root(coeffs[3], coeffs[4]), coeffs))
    best_any = min(scored, key=lambda s: s[0], default=None)
    best = min((s for s in scored if s[1] is None), key=lambda s: s[0], default=None)
    # reject when the data itself demands a pole: every pole-free candidate is
    # an order of magnitude worse than the best unconstrained one
    if best is None or (best_any[1] is not None and best[0] > 10.0 * best_any[0]):
        root = best_any[1] if best_any is not None else in_range_root(*unscale(theta0)[3:])
        raise ValueError(f"denominator root {root:.6g} inside fitted range; fit rejected")
    rmse, _, (a0, a1, a2, a3, a4) = best
    return RationalFit(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, rmse=rmse, p_min=p_min, p_max=p_max)


@dataclass(frozen=True)
class OdeSolution:
    """Fixed-step trajectory of the discovery balance equation.

    Satisfies D*D'' + (D' + 1)^2 = 0; the implied size P + D + (D' + 1)*D is
    conserved along the trajectory up to integration error.
    """

    p: np.ndarray
    d: np.ndarray
    dprime: np.ndarray
    step: float

    def implied_size(self) -> np.ndarray:
        return self.p + self.d + (self.dprime + 1.0) * self.d


def solve_acquisition_ode(
    p0: float, d0: float, dprime0: float, step: float, p_max: float
) -> OdeSolution:
    """Integrate D*D'' = -(D' + 1)^2 from (p0, d0, dprime0) to p_max.

    Classic fixed-step fourth-order Runge-Kutta; the final step is shortened to
    land exactly on p_max. Integration halts early when D would cross zero
    (where the equation is singular) or a stage overflows. Requires d0 > 0,
    step > 0, p_max >= p0, a finite implied size at the start, a step no
    smaller than the float spacing at the largest |P| of the range, below
    which ``p + step == p`` and P would never advance, and at most
    ``_MAX_ODE_STEPS`` steps from p0 to p_max.
    """
    if d0 <= 0:
        raise ValueError("d0 must be > 0")
    if step <= 0:
        raise ValueError("step must be > 0")
    if p_max < p0:
        raise ValueError("p_max must be >= p0")
    if step < (spacing := math.ulp(max(abs(p0), abs(p_max)))):
        raise ValueError(f"step {step!r} cannot advance P: it is below the float spacing {spacing!r} of P")
    if (steps := (p_max - p0) / step) > _MAX_ODE_STEPS:  # checked before any list grows
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"{count} Runge-Kutta steps from p0 to p_max exceed the limit of {_MAX_ODE_STEPS}")
    if not math.isfinite(p0 + d0 + (dprime0 + 1.0) * d0):
        raise ValueError("the implied size P + D + (D' + 1)*D of the start is not finite")

    def rhs(y: tuple[float, float]) -> tuple[float, float]:
        d, v = y
        if d <= 0:
            raise ArithmeticError("D reached 0")
        return (v, -((v + 1.0) ** 2) / d)

    ps = [p0]
    ds = [d0]
    vs = [dprime0]
    p, d, v = p0, d0, dprime0
    while p < p_max - 1e-12 * max(1.0, abs(p_max)):
        h = min(step, p_max - p)
        try:
            k1 = rhs((d, v))
            k2 = rhs((d + 0.5 * h * k1[0], v + 0.5 * h * k1[1]))
            k3 = rhs((d + 0.5 * h * k2[0], v + 0.5 * h * k2[1]))
            k4 = rhs((d + h * k3[0], v + h * k3[1]))
        except ArithmeticError:  # D reached 0, or a stage overflowed
            break
        d_new = d + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v_new = v + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if d_new <= 0 or not (math.isfinite(d_new) and math.isfinite(v_new)):
            break
        p += h
        d, v = d_new, v_new
        ps.append(p)
        ds.append(d)
        vs.append(v)
    return OdeSolution(
        p=np.array(ps), d=np.array(ds), dprime=np.array(vs), step=step
    )


def write_trace_csv(trace: CrawlTrace, path: str) -> None:
    """Write a trace as UTF-8 CSV (columns sample_index, P, D) with a
    commented header line carrying the run parameters."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# policy={trace.policy} stride={trace.stride} seed={trace.seed} "
            f"start={trace.start} true_size={trace.true_size} complete={int(trace.complete)}\n"
        )
        fh.write("sample_index,P,D\n")
        fh.writelines(f"{i},{p},{d}\n" for i, (p, d) in enumerate(zip(trace.p, trace.d)))


def read_trace_csv(path: str) -> CrawlTrace:
    """Read a trace written by write_trace_csv, as UTF-8 whatever the locale
    (a leading byte-order mark is skipped).

    Raises TraceParseError (with the line number) for a non-integer value of
    an integer ``# key=value`` header, a data row with fewer than 3 cells, a
    non-integer P or D cell, a P, D or true_size outside the signed 64-bit
    range, or a P that does not exceed the previous row's.
    """
    meta: dict = {"policy": "fifo", "stride": 1, "seed": 0, "start": 0, "true_size": 0, "complete": 1}
    ps: list[int] = []
    ds: list[int] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    k, sep, v = token.partition("=")
                    if not sep or k not in meta:
                        continue
                    if k != "policy":
                        try:
                            v = int(v)
                        except ValueError:
                            raise TraceParseError(line_no, f"header {token!r} is not an integer") from None
                        if k == "true_size" and not -(2**63) <= v < 2**63:
                            raise TraceParseError(line_no, f"header {token!r} is not a signed 64-bit integer")
                    meta[k] = v
                continue
            cells = line.split(",")
            if cells[0] == "sample_index":
                continue
            if len(cells) < 3:
                raise TraceParseError(line_no, f"expected at least 3 cells, got {len(cells)}: {line!r}")
            try:
                p, d = int(cells[1]), int(cells[2])
            except ValueError:
                raise TraceParseError(line_no, f"P and D must be integers: {line!r}") from None
            if not (-(2**63) <= p < 2**63 and -(2**63) <= d < 2**63):
                raise TraceParseError(line_no, f"P and D must be signed 64-bit integers: {line!r}")
            if ps and p <= ps[-1]:
                raise TraceParseError(line_no, f"P must be strictly increasing, got {p} after {ps[-1]}")
            ps.append(p)
            ds.append(d)
    return CrawlTrace(
        p=tuple(ps),
        d=tuple(ds),
        policy=meta["policy"],
        stride=meta["stride"],
        seed=meta["seed"],
        start=meta["start"],
        true_size=meta["true_size"],
        complete=bool(meta["complete"]),
    )
