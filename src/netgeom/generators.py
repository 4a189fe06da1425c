"""Synthetic graph generators with exact ground-truth structure labels.

Two families:

* appendage graphs: a well-connected core decorated with pendant chains
  ("tentacles", ending in a degree-1 "loner") and chains whose both ends attach
  to the core ("fibers"). Role labels are returned per node and are exact. A
  random core is G(m, p) joined into one component with the labeling of
  ``graph._component_ids``, then raised to minimum degree 3.
* two-segment power-law ("double-Pareto") degree sequences realized through an
  erased configuration model.

Neither family makes edge keys or rows: the core's (k, 2) pairs u < v, the
paths of the appendages and the matched stubs go, as integer arrays of end-node
pairs, to ``graph._from_pairs``, the builder the parser uses too.

All randomness is driven by numpy PCG64 streams seeded from the spec, made by
``graph._rng``, so equal seeds reproduce byte-identical graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _PUBLIC
from .graph import Graph, _component_ids, _from_pairs, _id_dtype, _rng

__all__ = ["ROLE_CORE", "ROLE_TENTACLE", "ROLE_LONER", "ROLE_FIBER", *_PUBLIC["generators"]]

ROLE_CORE = "core"
ROLE_TENTACLE = "tentacle"
ROLE_LONER = "loner"
ROLE_FIBER = "fiber"

# most nodes a graph can hold: graph._from_pairs keys an edge as min * n + max in int64
_MAX_NODES = math.isqrt(2**63 - 1)
# most float64 values generate_double_pareto_degrees makes at once, for its size draws or for its
# table of the max_degree - min_degree + 1 degrees' weights: 2**26 of them are 512 MiB
_MAX_DRAWS = 1 << 26

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
        nodes = self.core_size + sum(self.tentacle_lengths) + sum(self.fiber_inner_counts)
        if nodes > _MAX_NODES:
            raise ValueError(f"core, tentacle and fiber nodes must total <= {_MAX_NODES}, got {nodes}")


@dataclass(frozen=True)
class DoubleParetoSpec:
    """Two-segment discrete power law, continuous at the break degree.

    P(k) is proportional to k^-alpha_left on [min_degree, break_degree] and to
    break_degree^(alpha_right - alpha_left) * k^-alpha_right above the break,
    truncated at max_degree so the table stays finite for any exponents.
    ``size`` and the table's ``max_degree - min_degree + 1`` entries are each
    at most ``_MAX_DRAWS`` (2**26), checked before anything is allocated.
    """

    size: int
    alpha_left: float
    alpha_right: float
    break_degree: int
    min_degree: int = 1
    max_degree: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.size <= _MAX_NODES:
            raise ValueError(f"size must be in 1..{_MAX_NODES}, got {self.size}")
        if not all(math.isfinite(a) and a > 0 for a in (self.alpha_left, self.alpha_right)):
            raise ValueError("exponents must be finite and > 0")
        if not 1 <= self.min_degree <= self.break_degree <= self.max_degree <= _MAX_NODES:
            raise ValueError(f"need 1 <= min_degree <= break_degree <= max_degree <= {_MAX_NODES}")
        table = self.max_degree - self.min_degree + 1
        for name, count in (("size", self.size), ("max_degree - min_degree + 1", table)):
            if count > _MAX_DRAWS:  # each is the length of a float64 array
                raise ValueError(f"{name} must be <= {_MAX_DRAWS}, got {count}")


def _random_core(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The (k, 2) edges u < v of G(m, p) repaired to be connected with min degree >= 3."""
    adj = np.triu(rng.random((m, m)) < p, 1)
    # connect components: link a random node of each later component to a random
    # node of the first one (component ids follow each component's smallest node)
    cid, sizes = _component_ids(_from_pairs(m, [np.argwhere(adj).ravel()]))
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
    return np.argwhere(np.triu(adj, 1))


def _path(nodes: np.ndarray) -> np.ndarray:
    """The edges of the path through ``nodes``, their end nodes interleaved."""
    return np.repeat(nodes, 2)[1:-1]


def generate_appendage_graph(spec: AppendageSpec) -> tuple[Graph, tuple[str, ...]]:
    """Build the graph described by ``spec`` and return it with per-node roles.

    Roles are exact ground truth: "core", "tentacle" (chain node), "loner"
    (chain end of degree 1) and "fiber" (inner node of a both-ends-attached
    chain). Tentacles and fibers attach to uniformly chosen core nodes whose
    degree inside the core is at least 3; fibers use two distinct attachment
    nodes unless ``allow_fiber_loops`` is set. A loop fiber has at least two
    inner nodes: for a fiber of one, the second end is drawn again while it
    equals the first, since its two edges would be one. Each appendage's nodes
    take the next free ids, in order from its attachment node.
    """
    rng = _rng(spec.seed)
    m = spec.core_size
    if spec.core_kind == "complete":
        core = np.argwhere(np.triu(np.ones((m, m), dtype=bool), 1))
    else:
        core = _random_core(m, spec.edge_prob, rng)
    # attachments need core degree >= 3: every node of a core of m >= 4 nodes has
    # it (K_m gives m - 1, random cores are repaired to 3), no node of K3 does
    if (spec.tentacle_lengths or spec.fiber_inner_counts) and m < 4:
        raise ValueError("core too small to host attachments (no core node of degree >= 3)")
    pieces, roles = [core.ravel()], [ROLE_CORE] * m
    for length in spec.tentacle_lengths:
        pieces.append(_path(np.r_[int(rng.choice(m)), len(roles) : len(roles) + length]))
        roles += [ROLE_TENTACLE] * (length - 1) + [ROLE_LONER]
    for inner in spec.fiber_inner_counts:
        if spec.allow_fiber_loops:
            a, b = int(rng.choice(m)), int(rng.choice(m))
            while inner == 1 and b == a:  # its two edges would be one, leaving the node a loner
                b = int(rng.choice(m))
        else:
            a, b = rng.choice(m, size=2, replace=False).tolist()
        pieces.append(_path(np.r_[a, len(roles) : len(roles) + inner, b]))
        roles += [ROLE_FIBER] * inner
    return _from_pairs(len(roles), pieces), tuple(roles)


def generate_double_pareto_degrees(spec: DoubleParetoSpec) -> list[int]:
    """Draw an i.i.d. degree sequence from the two-segment law, forced to even sum.

    If the raw sum is odd the first sample is incremented by one.
    """
    rng = _rng(spec.seed)
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
    The graph counts the pairs it erased: ``self_loops_dropped`` plus
    ``duplicate_edges_dropped`` is ``sum(degrees) // 2 - edge_count``.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be >= 0")
    total = sum(degrees)
    if total % 2 != 0:
        raise ValueError(f"degree sum must be even, got {total}")
    rng = _rng(seed)
    # int32 stubs, as the parser's ids: shuffle draws the same swaps whatever the dtype
    stubs = np.repeat(np.arange(len(degrees), dtype=_id_dtype(len(degrees))), degrees)
    for _ in range(_MATCHING_ATTEMPTS):
        rng.shuffle(stubs)
        g = _from_pairs(len(degrees), [stubs])
        erased = len(stubs) // 2 - g.edge_count
        if erased == 0 or erased > _MATCHING_HOPELESS:
            break
    return g
