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

import codecs
import io
import math
import operator
import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import _ARC_BUDGET, _PUBLIC, InputError
from ._linefit import _line_fits

if TYPE_CHECKING:
    from .graph import Graph

__all__ = list(_PUBLIC["crawl"])

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
        if not all(map(operator.lt, self.p, self.p[1:])):
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

    Each step processes one frontier node and adds its unseen neighbours to
    the frontier: "fifo" takes the oldest (breadth-first), "random" a
    uniformly random member (seeded). The trace is sampled every ``stride``
    processed nodes, plus the last step, whose frontier is always empty. An
    empty graph is rejected before ``start`` is checked.

    Both crawls give the frontier's size after every step, sampled at one
    index set. The fifo crawl walks its queue in gathers of CSR rows
    (``_fifo_frontier``); the random crawl runs one frontier loop
    (``_random_frontier``), since each draw depends on the frontier's size one
    step earlier.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("cannot crawl an empty graph")
    from .graph import _node_ids  # loaded already: g is a Graph

    (start,) = _node_ids((start,), n, "start")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    frontier = _fifo_frontier(g, start) if policy == "fifo" else np.array(_random_frontier(g, start, seed))
    processed = len(frontier)
    step = min(stride, processed)  # a stride past the step count, even one past int64, samples the last alone
    at = np.r_[step:processed:step, processed]  # every stride-th step, and the last
    ps, ds = tuple(at.tolist()), tuple(frontier[at - 1].tolist())
    return CrawlTrace(ps, ds, policy, stride, seed, start, true_size=n, complete=processed == n)


def _fifo_frontier(g: Graph, start: int) -> np.ndarray:
    """The frontier's size after each step of a fifo crawl from ``start``: the
    start and the nodes the first k processed nodes find, less those k.

    The crawl's queue is ``order``, the nodes in the order they are found.
    Each pass gathers the rows of the next queued nodes, up to
    ``_ARC_BUDGET`` arcs and at least one row, in queue order. A node not
    seen yet is found by the earliest node of the run whose row names it
    (the least crawl position, by ``np.minimum.at``), which is the node that
    finds it in a fifo crawl, and rows are sorted, so the fresh nodes join
    the queue in the order the arcs come. Once every node is found no row
    can find more, so the walk stops there; how many nodes each position
    finds is one ``bincount`` of the first parents.
    """
    n, indptr, indices, deg = g.node_count, g.indptr, g.indices, np.diff(g.indptr)
    # by crawl position, the node and the arcs of the rows up to and including it;
    # by node, the crawl position of its first parent, -1 while unseen (the start's 0 only marks it seen)
    order, ends = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent[start], order[0], ends[0] = 0, start, deg[start]
    done, found = 0, 1
    while done < found < n:
        base = int(ends[done - 1]) if done else 0
        hi = max(done + 1, int(np.searchsorted(ends[:found], base + _ARC_BUDGET, side="right")))
        rows = order[done:hi]
        lens = deg[rows]
        pos = np.repeat(np.arange(done, hi), lens)  # each arc's parent, by its crawl position
        at = np.arange(len(pos)) + np.repeat(indptr[rows] - ends[done:hi] + lens + base, lens)
        nbr = indices[at].astype(np.intp)  # numpy gathers by intp ids several times faster than by int32
        nbr, pos = nbr[fresh := parent[nbr] < 0], pos[fresh]
        parent[nbr] = hi
        np.minimum.at(parent, nbr, pos)
        new = nbr[pos == parent[nbr]]
        order[found : found + len(new)] = new
        ends[found : found + len(new)] = ends[found - 1] + np.cumsum(deg[new])
        done, found = hi, found + len(new)
    return np.cumsum(np.bincount(parent[order[1:found]], minlength=found)) - np.arange(found)


def _random_frontier(g: Graph, start: int, seed: int) -> list[int]:
    """The frontier's size after each step of a random crawl from ``start``: each
    step swaps a uniformly random frontier node to the end and processes it. Once
    every node is found no row can add to the pool, so each later step only pops
    one node, whichever is drawn, and the draws stop there."""
    rng = random.Random(seed)
    seen = bytearray(g.node_count)
    seen[start] = 1
    unseen, sizes, pool = g.node_count - 1, [], [start]
    ptr, nbrs = g.indptr.tolist(), g.indices
    while pool and unseen:
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        u = pool.pop()
        for w in nbrs[ptr[u] : ptr[u + 1]].tolist():
            if not seen[w]:
                seen[w] = 1
                pool.append(w)
                unseen -= 1
        sizes.append(len(pool))
    sizes.extend(range(len(pool) - 1, -1, -1))
    return sizes


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
    return _slopes(np.asarray(trace.p, dtype=np.float64), np.asarray(trace.d, dtype=np.float64), w)


def _slopes(p: np.ndarray, d: np.ndarray, w: int) -> np.ndarray:
    """``estimate_derivative`` of the float64 columns ``p`` and ``d`` over windows of ``w`` samples."""
    if w < 2:
        raise ValueError("window must be >= 2 samples")
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
    if max(map(abs, chain(trace.p, trace.d)), default=0) > 2**53:
        raise ValueError("|P| and |D| must not exceed 2**53: float64 cannot hold every integer above it")
    w = default_window(trace) if window is None else window
    p = np.asarray(trace.p, dtype=np.float64)
    d = np.asarray(trace.d, dtype=np.float64)
    dprime = _slopes(p, d, w)
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

    # curves are evaluated into preallocated rows, each in the order of its plain expression
    # (q2 + t3*q + t4, t0*q3 + t1*q2 + t2*q, ...), so every bit is that expression's
    rows = [[np.empty(len(q)) for _ in range(4)] for _ in range(2)]

    def fill(theta, buf: list[np.ndarray]) -> float:
        """The scaled numerator, denominator and residuals of ``theta`` into ``buf``
        (its fourth row is scratch), and their RMSE: inf if a residual is not finite."""
        num, den, r, spare = buf
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(q3, theta[0], out=num)
            num += np.multiply(q2, theta[1], out=spare)
            num += np.multiply(q, theta[2], out=spare)
            np.divide(num, _quadratic(q, q2, theta[3], theta[4], den), out=r)
            r -= e
        rmse = float(np.sqrt(np.mean(np.multiply(r, r, out=spare))))
        return math.inf if math.isnan(rmse) else rmse

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
        w = np.maximum(np.abs(_quadratic(q, q2, theta[3], theta[4], rows[0][1])), 1e-8)
        theta_new, *_ = np.linalg.lstsq(a / w[:, None], y / w, rcond=None)
        if not np.all(np.isfinite(theta_new)):
            break
        candidates.append(theta_new)
        if np.allclose(theta_new, theta, rtol=1e-12, atol=1e-15):
            break
        theta = theta_new

    jac = np.empty((len(q), 5), order="F")

    def gauss_newton(theta: np.ndarray) -> None:
        cur, spare = rows
        rmse = fill(theta, cur)
        if not np.isfinite(rmse):
            return
        for _ in range(40):
            num, den, r, den2 = cur  # those of theta, the last trial accepted
            np.multiply(den, den, out=den2)
            for col, top, bottom in zip(jac.T, (q3, q2, q, -num * q, -num), (den, den, den, den2, den2)):
                np.divide(top, bottom, out=col)
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                return
            scale = 1.0
            for _ in range(20):
                trial = theta + scale * step
                if (trial_rmse := fill(trial, spare)) < rmse:
                    theta, rmse, cur, spare = trial, trial_rmse, spare, cur
                    candidates.append(trial)
                    break
                scale *= 0.5
            else:
                return
            if float(np.linalg.norm(scale * step)) <= 1e-14 * (1.0 + float(np.linalg.norm(theta))):
                return

    # polish both basins: the raw seed and the best reweighted iterate
    reweighted_best = min(candidates, key=lambda t: fill(t, rows[0]))
    gauss_newton(theta0)
    if reweighted_best is not theta0:
        gauss_newton(reweighted_best)

    # deterministic multistart: pin a pole-free denominator, solve the
    # numerator linearly against the true residual, then polish; this reaches
    # basins the equation-error seed cannot
    for c3, c4 in ((0.0, 0.25), (1.0, 0.5), (0.2, 0.05), (0.5, 0.01), (0.05, 1e-3), (0.02, 1e-4)):
        den = _quadratic(q, q2, c3, c4, rows[0][1])
        coef, *_ = np.linalg.lstsq(np.column_stack([q3 / den, q2 / den, q / den]), e, rcond=None)
        if np.all(np.isfinite(coef)):
            seed = np.array([coef[0], coef[1], coef[2], c3, c4])
            candidates.append(seed)
            gauss_newton(seed)

    scored = []  # (RMSE in units of D, in-range denominator root or None, coefficients)
    pp = p * p
    resid, den, spare, _ = rows[0]
    for t in candidates:
        coeffs = unscale(t) if np.all(np.isfinite(t)) else None
        if coeffs is not None:
            # d - RationalFit(*coeffs, ...).evaluate(p), in evaluate's order
            c0, c1, c2, c3, c4 = coeffs
            _quadratic(p, pp, c1, c2, resid)
            resid *= np.multiply(p, c0, out=spare)
            np.divide(resid, _quadratic(p, pp, c3, c4, den), out=resid)
            np.subtract(d, resid, out=resid)
            rmse = float(np.sqrt(np.mean(np.multiply(resid, resid, out=resid))))
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


def _quadratic(x: np.ndarray, xx: np.ndarray, b, c, out: np.ndarray) -> np.ndarray:
    """``xx + b * x + c`` into ``out``, with the float operations of that expression."""
    np.multiply(x, b, out=out)
    out += xx
    out += c
    return out


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
    if not d0 > 0:  # NaN fails each guard
        raise ValueError("d0 must be > 0")
    if not math.isfinite(p0 + d0 + (dprime0 + 1.0) * d0):
        raise ValueError("the implied size P + D + (D' + 1)*D of the start is not finite")
    if not step > 0:
        raise ValueError("step must be > 0")
    if not p_max >= p0:
        raise ValueError("p_max must be >= p0")
    if step < (spacing := math.ulp(max(abs(p0), abs(p_max)))):
        raise ValueError(f"step {step!r} cannot advance P: it is below the float spacing {spacing!r} of P")
    if (steps := (p_max - p0) / step) > _MAX_ODE_STEPS:  # checked before any list grows
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"{count} Runge-Kutta steps from p0 to p_max exceed the limit of {_MAX_ODE_STEPS}")

    ps = [p0]
    ds = [d0]
    vs = [dprime0]
    p, d, v = p0, d0, dprime0
    end = p_max - 1e-12 * max(1.0, abs(p_max))
    while p < end:
        h = min(step, p_max - p)
        half = 0.5 * h
        # the four stages (D', D'') = (v_i, a_i) at (d_i, v_i), d_1 = d > 0 and v_1 = v, with
        # D'' = -(v_i + 1)^2 / d_i; a stage that overflows or has D <= 0 ends the run (the
        # stages after one with D <= 0 are computed, and not used)
        try:
            a1 = -((v + 1.0) ** 2) / d
            d2, v2 = d + half * v, v + half * a1
            a2 = -((v2 + 1.0) ** 2) / d2
            d3, v3 = d + half * v2, v + half * a2
            a3 = -((v3 + 1.0) ** 2) / d3
            d4, v4 = d + h * v3, v + h * a3
            a4 = -((v4 + 1.0) ** 2) / d4
        except ArithmeticError:  # a stage overflowed, or divided by its D of 0
            break
        if d2 <= 0 or d3 <= 0 or d4 <= 0:
            break
        d_new = d + (h / 6.0) * (v + 2 * v2 + 2 * v3 + v4)
        v_new = v + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        if d_new <= 0 or not (math.isfinite(d_new) and math.isfinite(v_new)):
            break
        p += h
        d, v = d_new, v_new
        ps.append(p)
        ds.append(d)
        vs.append(v)
    return OdeSolution(p=np.array(ps), d=np.array(ds), dprime=np.array(vs), step=step)


def write_trace_csv(trace: CrawlTrace, path: str) -> None:
    """Write a trace as UTF-8 CSV (columns sample_index, P, D) with a
    commented header line carrying the run parameters."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# policy={trace.policy} stride={trace.stride} seed={trace.seed} "
            f"start={trace.start} true_size={trace.true_size} complete={int(trace.complete)}\n"
        )
        fh.write("sample_index,P,D\n")
        fh.write("".join(map("{},{},{}\n".format, range(trace.samples), trace.p, trace.d)))


_META = {"policy": "fifo", "stride": 1, "seed": 0, "start": 0, "true_size": 0, "complete": 1}
# the class of each byte in a data row, for bytes.translate: 0 a digit, 1 a comma, 2 a newline, 3 any other
_ROW_BYTES = bytes(0 if b in b"0123456789" else 1 if b == ord(",") else 2 if b == ord("\n") else 3
                   for b in range(256))


def read_trace_csv(path: str) -> CrawlTrace:
    """Read a trace written by write_trace_csv, as UTF-8 whatever the locale
    (a leading byte-order mark is skipped).

    Raises TraceParseError (with the line number) for a non-integer value of
    an integer ``# key=value`` header, a data row with fewer than 3 cells, a
    non-integer P or D cell, a P, D or true_size outside the signed 64-bit
    range, or a P that does not exceed the previous row's.

    The file is read once. Its bytes go to one numpy pass (``_trace_columns``),
    whatever their line ends (LF, CRLF or a lone CR); if that pass turns them
    down, they are decoded whole and go to the line loop
    ``_trace_lines``, which names the first bad line. So a file that is not
    UTF-8 anywhere raises UnicodeDecodeError, whatever bad line comes before,
    as an edge list does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    meta = dict(_META)
    if (columns := _trace_columns(data, meta)) is None:
        meta = dict(_META)  # the numpy pass may have taken in part of the header
        # every byte is checked before the first line is parsed; the lines are then decoded
        # again a chunk at a time, as an io.StringIO of the text would hold 4 bytes a character
        data.decode("utf-8-sig")
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
            columns = _trace_lines(fh, meta)
    return CrawlTrace(*columns, **{**meta, "complete": bool(meta["complete"])})


def _trace_columns(data: bytes, meta: dict) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """P and D of a trace file's bytes, read in one numpy pass, and its header
    lines taken into ``meta``.

    CRLF and lone-CR line ends become LF first, as the line loop splits at
    each of them. The lines before the first that starts with a digit go
    through the line loop, which must find no row in them; every line from
    there on must be three cells of 1 to 18 digits, with P rising. Otherwise,
    or if the header is not UTF-8, the result is None, and the caller reads
    the file with the line loop, which names the first bad line (or byte).
    The P and D cells are read by Horner's rule, one pass per digit place.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
    at = head.start() if (head := re.search(rb"^[0-9]", data, re.MULTILINE)) else len(data)
    try:
        if _trace_lines(io.StringIO(data[:at].decode(), newline=""), meta)[0]:
            return None
    except (TraceParseError, UnicodeDecodeError):
        return None
    rows = data[at:].removesuffix(b"\n") + b"\n"  # a file with no row goes to the line loop
    kind = np.frombuffer(rows.translate(_ROW_BYTES), dtype=np.uint8)
    ends = np.flatnonzero(kind)  # every byte but a digit ends a cell
    widths = np.diff(ends, prepend=-1) - 1
    # a row that is not three cells, an empty cell, or one that may not fit in int64
    if (len(ends) % 3 or (kind[ends].reshape(-1, 3) != (1, 1, 2)).any()
            or not 1 <= widths.min() <= widths.max() <= 18):
        return None
    body = np.frombuffer(rows, dtype=np.uint8)
    ends, widths = ends.reshape(-1, 3)[:, 1:], widths.reshape(-1, 3)[:, 1:]  # the P and D cells
    cells = np.zeros(ends.shape, dtype=np.int64)
    for k in range(int(widths.max()), 0, -1):  # the digit k bytes before each cell's end, if it has one
        cells *= np.where(widths >= k, 10, 1)
        cells += np.where(widths >= k, body[ends - k] - ord("0"), 0)
    p, d = cells.T
    if (p[1:] <= p[:-1]).any():
        return None
    return tuple(p.tolist()), tuple(d.tolist())


def _trace_lines(lines: Iterable[str], meta: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """P and D of a trace file's text lines, read one by one, its header lines taken into ``meta``."""
    ps: list[int] = []
    ds: list[int] = []
    for line_no, raw in enumerate(lines, start=1):
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
    return tuple(ps), tuple(ds)
