"""A fixed calibration burst that tells how fast the machine is running right now.

The two vCPUs of a shared VM change speed under other tenants by up to 2x,
over seconds and over tens of minutes, for wall and CPU time alike (no steal
time shows). No statistic of the jobs' own times removes a drift that lasts
longer than a run, so ``run.py`` times one burst before and after every
process it starts and reports each process's times scaled to the speed of a
reference burst (``run._ref_s``).

A burst does the two kinds of work netgeom does, about 0.1 s each at the
reference speed:

* breadth-first searches in pure Python over a seeded random graph of
  20 000 nodes and 200 000 edges, the size of the ``heavy20k`` input:
  interpreter-bound, with adjacency lists (about 20 MiB) well beyond the
  L2 cache;
* numpy passes over all node pairs of a seeded 250 x 250 integer matrix,
  gathering two rows per pair and comparing them against a per-pair
  threshold in blocks, as ``reduce_references`` does with its cover table.

Bursts tried and dropped: BFS over a 4 000-node graph that fits in cache
(it slowed less than the jobs did), and parsing 100 000 edge lines into
adjacency lists. The BFS part alone tracked ``heavy20k`` well but
over-corrected ``reduce``, whose numpy work slows less than interpreter work.
"""
from __future__ import annotations

import random
import time

import numpy as np

NODES = 20_000
EDGES = 200_000
SOURCES = 2
MATRIX = 250
BLOCK = (1 << 22) // MATRIX  # pairs per numpy block, as in reduce_references


class Calibrator:
    def __init__(self) -> None:
        rng = random.Random(1)
        self.adj: list[list[int]] = [[] for _ in range(NODES)]
        for _ in range(EDGES):
            u, v = rng.randrange(NODES), rng.randrange(NODES)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.matrix = np.random.default_rng(1).integers(0, 8, size=(MATRIX, MATRIX), dtype=np.int32)
        self.rows_i, self.rows_j = (a.astype(np.int32) for a in np.triu_indices(MATRIX, k=1))
        self.thresh = np.maximum(self.matrix[self.rows_i, self.rows_j] - 1, 0)

    def _bfs(self) -> int:
        checksum = 0
        for source in range(SOURCES):
            dist = [-1] * NODES
            dist[source] = 0
            frontier, depth = [source], 0
            while frontier:
                depth += 1
                reached = []
                for u in frontier:
                    for v in self.adj[u]:
                        if dist[v] < 0:
                            dist[v] = depth
                            reached.append(v)
                frontier = reached
            checksum += sum(dist)
        return checksum

    def _pairs(self) -> int:
        checksum = 0
        m, ri, rj = self.matrix, self.rows_i, self.rows_j
        for s in range(0, ri.size, BLOCK):
            t = min(s + BLOCK, ri.size)
            covered = np.abs(m[ri[s:t], :].astype(np.int64) - m[rj[s:t], :]) >= self.thresh[s:t, None]
            checksum += int(covered.sum())
        return checksum

    def burst(self) -> dict:
        """Wall and CPU seconds of one burst, and a checksum of its work."""
        t0, c0 = time.perf_counter(), time.process_time()
        checksum = [self._bfs(), self._pairs()]
        return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0,
                "checksum": checksum}
