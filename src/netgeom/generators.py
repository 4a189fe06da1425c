"""Synthetic graph generators with exact ground-truth structure labels.

Two families:

* appendage graphs: a well-connected core decorated with pendant chains
  ("tentacles", ending in a degree-1 "loner") and chains whose both ends attach
  to the core ("fibers"). Role labels are returned per node and are exact. A
  random core is G(m, p) joined into one component with the labeling of
  ``graph._component_ids``, then raised to minimum degree 3.
* two-segment power-law ("double-Pareto") degree sequences realized through an
  erased configuration model.

All randomness is driven by numpy PCG64 streams seeded from the spec, so equal
seeds reproduce byte-identical graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _component_ids, _sorted_unique

__all__ = [
    "ROLE_CORE",
    "ROLE_TENTACLE",
    "ROLE_LONER",
    "ROLE_FIBER",
    "AppendageSpec",
    "DoubleParetoSpec",
    "generate_appendage_graph",
    "generate_double_pareto_degrees",
    "configuration_model",
]

ROLE_CORE = "core"
ROLE_TENTACLE = "tentacle"
ROLE_LONER = "loner"
ROLE_FIBER = "fiber"

# Stub-matching retry policy: retry while a simple matching is plausibly near,
# otherwise fall back to erasing the offending pairs (see configuration_model).
_MATCHING_ATTEMPTS = 40
_MATCHING_HOPELESS = 16


@dataclass(frozen=True)
class AppendageSpec:
    """Recipe for an appendage graph.

    core_kind is "complete" or "random"; random cores use ``edge_prob`` and are
    repaired to be connected with minimum degree 3, so that every appendage is
    recoverable from the final graph (attachment never turns a core node into a
    chain node). Tentacle lengths and fiber inner-node counts are in nodes
    (tentacle length equals its hop count from the attachment point).
    """

    core_size: int
    core_kind: str = "complete"
    edge_prob: float = 0.0
    tentacle_lengths: tuple[int, ...] = ()
    fiber_inner_counts: tuple[int, ...] = ()
    allow_fiber_loops: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.core_kind not in ("complete", "random"):
            raise ValueError(f"unknown core kind {self.core_kind!r}")
        if self.core_size < 3:
            raise ValueError("core must have at least 3 nodes")
        if self.core_kind == "random":
            if not 0.0 <= self.edge_prob <= 1.0:
                raise ValueError("edge_prob must be in [0, 1]")
            if self.core_size < 4:
                raise ValueError("random cores need at least 4 nodes to reach min degree 3")
        if any(t < 1 for t in self.tentacle_lengths):
            raise ValueError("tentacle lengths must be >= 1")
        if any(f < 1 for f in self.fiber_inner_counts):
            raise ValueError("fiber inner-node counts must be >= 1")


@dataclass(frozen=True)
class DoubleParetoSpec:
    """Two-segment discrete power law, continuous at the break degree.

    P(k) is proportional to k^-alpha_left on [min_degree, break_degree] and to
    break_degree^(alpha_right - alpha_left) * k^-alpha_right above the break,
    truncated at max_degree so the table stays finite for any exponents.
    """

    size: int
    alpha_left: float
    alpha_right: float
    break_degree: int
    min_degree: int = 1
    max_degree: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not all(math.isfinite(a) and a > 0 for a in (self.alpha_left, self.alpha_right)):
            raise ValueError("exponents must be finite and > 0")
        if not 1 <= self.min_degree <= self.break_degree <= self.max_degree:
            raise ValueError("need 1 <= min_degree <= break_degree <= max_degree")


def _upper_keys(mask: np.ndarray) -> np.ndarray:
    """Sorted edge keys ``u * m + v`` of the pairs u < v set in the m×m ``mask``."""
    return np.flatnonzero(np.triu(mask, 1))


def _random_core_keys(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Edge keys of G(m, p) repaired to be connected with min degree >= 3."""
    adj = np.triu(rng.random((m, m)) < p, 1)
    # connect components: link a random node of each later component to a random
    # node of the first one (component ids follow each component's smallest node)
    cid, sizes = _component_ids(Graph._from_keys(m, np.flatnonzero(adj)))
    comps = np.split(np.argsort(cid, kind="stable"), np.cumsum(sizes)[:-1])
    for comp in comps[1:]:
        u, v = rng.choice(comp), rng.choice(comps[0])
        adj[u, v] = True
    adj |= adj.T
    # raise minimum degree to 3; with the diagonal set, a node is never its own
    # candidate and a row of degree d holds d + 1 set cells
    np.fill_diagonal(adj, True)
    for u in range(m):
        while adj[u].sum() < 4:
            v = rng.choice(np.flatnonzero(~adj[u]))
            adj[u, v] = adj[v, u] = True
    return _upper_keys(adj)


def generate_appendage_graph(spec: AppendageSpec) -> tuple[Graph, tuple[str, ...]]:
    """Build the graph described by ``spec`` and return it with per-node roles.

    Roles are exact ground truth: "core", "tentacle" (chain node), "loner"
    (chain end of degree 1) and "fiber" (inner node of a both-ends-attached
    chain). Tentacles and fibers attach to uniformly chosen core nodes whose
    degree inside the core is at least 3; fibers use two distinct attachment
    nodes unless ``allow_fiber_loops`` is set.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.core_size
    if spec.core_kind == "complete":
        keys = _upper_keys(np.ones((m, m), dtype=bool))
    else:
        keys = _random_core_keys(m, spec.edge_prob, rng)
    lo, hi = np.divmod(keys, m)
    eligible = np.flatnonzero(np.bincount(np.r_[lo, hi], minlength=m) >= 3).tolist()
    if (spec.tentacle_lengths or spec.fiber_inner_counts) and not eligible:
        raise ValueError("core too small to host attachments (no core node of degree >= 3)")

    edges: list[tuple[int, int]] = list(zip(lo.tolist(), hi.tolist()))
    roles: list[str] = [ROLE_CORE] * m
    next_id = m

    for length in spec.tentacle_lengths:
        attach = int(rng.choice(eligible))
        prev = attach
        for i in range(length):
            node = next_id
            next_id += 1
            edges.append((prev, node))
            roles.append(ROLE_LONER if i == length - 1 else ROLE_TENTACLE)
            prev = node

    for inner in spec.fiber_inner_counts:
        if spec.allow_fiber_loops:
            a = int(rng.choice(eligible))
            b = int(rng.choice(eligible))
        else:
            if len(eligible) < 2:
                raise ValueError("core too small to host a fiber with distinct endpoints")
            pair = rng.choice(len(eligible), size=2, replace=False)
            a, b = eligible[int(pair[0])], eligible[int(pair[1])]
        prev = a
        for _ in range(inner):
            node = next_id
            next_id += 1
            edges.append((prev, node))
            roles.append(ROLE_FIBER)
            prev = node
        edges.append((prev, b))

    return Graph.from_edges(next_id, edges), tuple(roles)


def generate_double_pareto_degrees(spec: DoubleParetoSpec) -> list[int]:
    """Draw an i.i.d. degree sequence from the two-segment law, forced to even sum.

    If the raw sum is odd the first sample is incremented by one.
    """
    rng = np.random.default_rng(spec.seed)
    ks = np.arange(spec.min_degree, spec.max_degree + 1, dtype=np.float64)
    weights = ks ** (-spec.alpha_left)
    right = ks > spec.break_degree
    # continuity factor so both segments agree at the break degree
    scale = float(spec.break_degree) ** (spec.alpha_right - spec.alpha_left)
    weights[right] = scale * ks[right] ** (-spec.alpha_right)
    cdf = np.cumsum(weights)
    u = rng.random(spec.size) * cdf[-1]
    idx = np.searchsorted(cdf, u, side="right")
    degrees = (idx + spec.min_degree).astype(np.int64)
    if int(degrees.sum()) % 2 != 0:
        degrees[0] += 1
    return [int(d) for d in degrees]


def configuration_model(degrees: list[int], seed: int = 0) -> Graph:
    """Erased configuration model over ``degrees`` (sum must be even).

    Stubs are matched by uniform shuffling. The matching is re-drawn up to a
    few dozen times while it stays close to simple, so forced small instances
    (for example degrees [2, 2, 2]) realize their unique simple graph; once a
    matching carries many collisions the self-loops and duplicate edges are
    simply erased, which is the intended behavior for heavy-tailed sequences.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be >= 0")
    total = sum(degrees)
    if total % 2 != 0:
        raise ValueError(f"degree sum must be even, got {total}")
    n = len(degrees)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    for _ in range(_MATCHING_ATTEMPTS):
        rng.shuffle(stubs)
        u = stubs[0::2]
        v = stubs[1::2]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        nonself = lo != hi
        keys = _sorted_unique(lo[nonself] * np.int64(n) + hi[nonself])
        bad = int(len(u) - len(keys))
        if bad == 0 or bad > _MATCHING_HOPELESS:
            break
    return Graph._from_keys(n, keys)
