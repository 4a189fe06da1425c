"""Command-line front end wiring every analysis stage into one binary.

Design notes:
- Node columns in all emitted files use the input-file node tokens (labels),
  so results can be joined across stages and back to the source data even
  though internal ids are dense and first-appearance ordered.
- Every run writes meta.json: tool version, subcommand, config echo, seed and
  a content digest per input file. No timestamps, so identical (config,
  inputs, seed) runs are byte-identical.
- Every subcommand takes one run path through ``main``: read the one input
  it declares (``--graph`` edge list, ``--trace`` CSV or none), run the
  ``_cmd_*`` function, which imports the layers it uses and writes its own
  reports into a fresh staging directory, write meta.json there, and only
  then make the out dir and move every file into it.
- A process loads only the modules of its subcommand. Importing this module
  loads no layer. The graph subcommands load graph.py in ``_read_input`` and
  their own layers in their ``_cmd_*`` function; a bare ``stats --graph``
  loads graph.py and stats.py alone. ``estimate``, ``fit-rational`` and
  ``solve-ode`` load crawl.py and the line-fit kernel _linefit.py, never
  graph.py or stats.py. The fifo crawl of ``crawl-sim`` walks its queue in
  gathers of CSR rows, not node by node or per level.
- Exit codes: 0 success, 1 parse/config error (bad flags, out-of-range flag
  values, malformed edge lists, malformed trace headers or rows, invalid
  generator recipes: ``CliError`` or the library's ``InputError``), 2 analysis
  precondition violation (disconnected graph for depth/embed, too few samples
  to fit, ...). Flag values are checked before any input is read. A failed
  run makes no directory and writes no file: a report already in the out dir
  is replaced only when a run succeeds.
- A command-line run ends in ``run``: once ``main`` has published the reports
  and returned its code, stdout and stderr are flushed and the process exits
  by ``os._exit``, without interpreter teardown (freeing numpy and every
  module costs about 30 ms a process). ``main(argv)`` returns the code for
  in-process callers and tests, which see no change. Teardown-time warnings,
  such as a ``ResourceWarning`` for a file left open, no longer show in a
  subprocess run; the in-process tier-1 leg run with
  ``-W error::ResourceWarning`` still fails on them.
- Importing this module sets numpy's BLAS to one thread, unless the caller
  set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS; a library
  ``import netgeom`` sets none of them.
"""
from __future__ import annotations

import os

# OpenBLAS starts its thread pool when numpy loads it, and the one BLAS call,
# lstsq on samples x 5 in fit_rational, is too small to gain from a second thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import re
import shutil
import sys
import tempfile
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import InputError, __version__

if TYPE_CHECKING:
    from .crawl import CrawlTrace
    from .generators import AppendageSpec, DoubleParetoSpec
    from .graph import Graph
    from .stats import Histogram

# the layers, graph.py too, are imported inside _read_input and the _cmd_*
# functions, so that a process compiles and runs only the modules of its own
# subcommand; hashlib, which maps in libcrypto, is imported by _sha256 once the
# analysis is done and has freed its memory

OUT_DIR_ENV = "NETGEOM_OUT"
_EDGE_SLICE = 1 << 16  # edges formatted per write of an edge file
_PAD = b"\xff"  # pads a byte-table cell; str.encode() never makes this byte


class CliError(Exception):
    """Configuration problem: wrong flags, malformed recipe, unknown node."""


class _Parser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad flags; we reserve 2 for
    analysis errors, so surface parse problems as CliError (exit 1) instead."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliError(message)

    def _print_message(self, message: str, file=None) -> None:
        """argparse drops the OSError of a failed write of help or version text.
        An unbuffered stdout that is closed, or a pipe whose reader has gone,
        fails here rather than in ``run``'s flush, so end with status 1 here
        too, with no traceback."""
        file = file or sys.stderr
        if message and file is not None:  # None when the descriptor was closed at start-up
            try:
                file.write(message)
            except OSError:
                raise SystemExit(1) from None


# ---------------------------------------------------------------------------
# shared plumbing


def _sha256(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(out: str, name: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _write_text(out, name, text + "\n")


def _write_text(out: str, name: str, text: str) -> None:
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:  # \n on every platform
        fh.write(text)


def _write_hist(out: str, name: str, header: str, hist: Histogram) -> None:
    _write_text(out, name, f"# {header}\n" + hist.to_text())


def _write_meta(out: str, args, input_paths: Sequence[str]) -> None:
    config = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "out"):
            continue
        if k in ("graph", "trace") and isinstance(v, str):
            v = os.path.basename(v)
        config[k] = v
    meta = {
        "tool": "netgeom",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": {os.path.basename(p): _sha256(p) for p in input_paths},
    }
    _write_json(out, "meta.json", meta)


def _resolve_nodes(g: Graph, tokens: Sequence[str]) -> tuple[int, ...]:
    """Node ids of the given label tokens, building the label map once."""
    ids = {name: v for v, name in enumerate(_names(g))}
    try:
        return tuple(ids[t] for t in tokens)
    except KeyError as e:
        raise CliError(f"node {e.args[0]!r} not present in the graph") from None


def _fields(obj, *names: str) -> dict:
    """``{name: obj.name}`` for a JSON report section (json.dump sorts the keys)."""
    return {name: getattr(obj, name) for name in names}


def _names(g: Graph) -> Sequence[str]:
    """Every node's label, by node id."""
    return g.labels if g.labels is not None else [str(v) for v in range(g.node_count)]


def _rows(sep: str, *columns: Iterable) -> str:
    """One line per row: the row's cells, each written as ``format(x, "")``
    (``repr`` for a float), joined by ``sep``."""
    return "".join(map((sep.join(["{}"] * len(columns)) + "\n").format, *columns))


def _cells(texts: Iterable[str]) -> np.ndarray:
    """A fixed-width byte table of ``texts`` in UTF-8, each cell padded with ``_PAD``
    to the widest cell rounded up to a power of two, for ``take``."""
    raw = [text.encode() for text in texts]
    width = 1 << (max(map(len, raw), default=1) - 1).bit_length()
    return np.array([cell.ljust(width, _PAD) for cell in raw], dtype=f"S{width}")


def _write_edges(out: str, name: str, g: Graph) -> None:
    """Write one "u v" line per edge, in sorted edge order, about ``_EDGE_SLICE`` edges at a time.

    The cells come from one ``_cells`` table: each label followed by a space,
    then each label followed by a newline. A slice's edges come from a range of
    CSR rows (``Graph._edge_slices``); their cells are taken at once and written
    with their ``_PAD`` bytes dropped, so no Python object is made per edge.
    """
    cells = _cells(label + end for end in " \n" for label in _names(g))
    with open(os.path.join(out, name), "wb") as fh:
        for lo, hi in g._edge_slices(_EDGE_SLICE):
            # the newline cells follow the space cells
            fh.write(cells.take(np.stack((lo, hi + g.node_count), axis=1)).tobytes().translate(None, _PAD))


def _parse_kv(tokens: Sequence[str], allowed: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliError(f"expected KEY=VALUE, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in allowed:
            raise CliError(f"unknown key {k!r}; allowed: {', '.join(allowed)}")
        if k in out:
            raise CliError(f"duplicate key {k!r}")
        out[k] = v
    return out


class _Sampling(str):
    """argparse type for ``exact`` or ``sampled:K`` (K >= 1). It stays the flag's
    text, which meta.json records, and carries the parsed ``mode`` and ``k``."""

    def __new__(cls, text: str):
        mode, _, k = text.partition(":")
        if text != "exact" and not (mode == "sampled" and k.isdigit() and int(k) >= 1):
            raise argparse.ArgumentTypeError(f"must be exact or sampled:K with K >= 1, got {text!r}")
        self = super().__new__(cls, text)
        self.mode, self.k = mode, int(k) if k else None
        return self


def _at_least(kind, low, strict: bool = False):
    """argparse type: a ``kind`` value that is >= low (> low when strict). A
    float must also be finite: meta.json echoes every flag, and JSON has no
    NaN or Infinity."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_finite = _at_least(float, -math.inf)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"{what} must be a comma-separated integer list, got {text!r}") from None


# ---------------------------------------------------------------------------
# generate


def _appendage_spec(tokens: Sequence[str], seed: int) -> AppendageSpec:
    from .generators import AppendageSpec

    kv = _parse_kv(tokens, ("core", "tentacles", "fibers", "loops"))
    if "core" not in kv:
        raise CliError("appendage recipe needs core=K<size> or core=R<size>:<edge_prob>")
    core = kv["core"]
    if m := re.fullmatch(r"K(\d+)", core):
        kind, size, prob = "complete", m.group(1), "0"
    elif m := re.fullmatch(r"R(\d+):([0-9.]+)", core):
        kind, size, prob = "random", m.group(1), m.group(2)
    else:
        raise CliError(f"core must look like K10 or R12:0.3, got {core!r}")
    try:  # float("1.2.3") fails here too, so a malformed recipe is an input error
        return AppendageSpec(
            core_size=int(size),
            core_kind=kind,
            edge_prob=float(prob),
            tentacle_lengths=_int_list(kv.get("tentacles", ""), "tentacles"),
            fiber_inner_counts=_int_list(kv.get("fibers", ""), "fibers"),
            allow_fiber_loops=kv.get("loops", "0") not in ("0", "false", "no"),
            seed=seed,
        )
    except ValueError as e:
        raise CliError(str(e)) from None


def _double_pareto_spec(tokens: Sequence[str], seed: int) -> DoubleParetoSpec:
    from .generators import DoubleParetoSpec

    kv = _parse_kv(tokens, ("n", "alpha-left", "alpha-right", "break", "min", "max"))
    for key in ("n", "alpha-left", "alpha-right", "break"):
        if key not in kv:
            raise CliError(f"double-pareto recipe needs {key}=...")
    try:
        return DoubleParetoSpec(
            size=int(kv["n"]),
            alpha_left=float(kv["alpha-left"]),
            alpha_right=float(kv["alpha-right"]),
            break_degree=int(kv["break"]),
            min_degree=int(kv.get("min", "1")),
            max_degree=int(kv.get("max", "100000")),
            seed=seed,
        )
    except ValueError as e:
        raise CliError(str(e)) from None


def _cmd_generate(args, out: str, _) -> None:
    from .generators import configuration_model, generate_appendage_graph, generate_double_pareto_degrees
    from .stats import degree_histogram

    if args.appendage:
        g, roles = generate_appendage_graph(_appendage_spec(args.appendage, args.seed))
        _write_edges(out, "edges.txt", g)
        _write_text(out, "roles.txt", _rows(" ", _names(g), roles))
    else:
        degrees = generate_double_pareto_degrees(_double_pareto_spec(args.double_pareto, args.seed))
        g = configuration_model(degrees, seed=args.seed)
        _write_edges(out, "edges.txt", g)
        _write_text(out, "degrees.txt", _rows("", degrees))
        _write_hist(out, "degree_hist.txt", "realized degree, node count", degree_histogram(g))


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args, out: str, g: Graph) -> None:
    from .graph import _component_summary
    from .stats import degree_histogram, fit_double_pareto, path_length_report, senior_stats

    if g.node_count == 0:
        raise ValueError("statistics of an empty graph are undefined")
    count, giant_size, core = _component_summary(g, core=args.giant)
    report: dict = {
        "graph": {
            "nodes": g.node_count,
            "edges": g.edge_count,
            "components": count,
            "giant_core_size": giant_size,
            "self_loops_dropped": g.self_loops_dropped,
            "duplicate_edges_dropped": g.duplicate_edges_dropped,
        }
    }
    target = g
    if args.giant:
        target = core
        report["giant"] = True

    if args.degrees or args.fit:
        hist = degree_histogram(target)
        _write_hist(out, "degree_hist.txt", "degree, node count", hist)
        section: dict = {"histogram": hist.as_dict(), "max": hist.max_value}
        if args.fit:
            fit = fit_double_pareto(hist)
            section["double_pareto"] = _fields(
                fit, "alpha_left", "alpha_right", "break_degree", "sse", "weighted"
            )
        report["degrees"] = section

    if args.paths:
        pl = path_length_report(target, mode=args.paths.mode, sources=args.paths.k, seed=args.seed)
        _write_hist(out, "paths_hist.txt", "path length, pair count", pl.histogram)
        report["paths"] = _fields(
            pl, "mean", "diameter", "mode", "total_pairs", "source_count", "seed"
        )

    if args.seniors is not None:
        sr = senior_stats(target, threshold=args.seniors)
        _write_hist(out, "senior_neighbor_hist.txt", "senior neighbors, senior node count",
                    sr.neighbor_histogram)
        report["seniors"] = _fields(
            sr, "threshold", "count", "fraction", "no_senior_neighbor_count", "mean_senior_neighbors"
        )

    _write_json(out, "report.json", report)


# ---------------------------------------------------------------------------
# decompose


def _cmd_decompose(args, out: str, g: Graph) -> None:
    from .structure import decompose, fiber_histogram, tentacle_histogram

    d = decompose(g)
    labels = d.node_labels()
    _write_text(out, "roles.txt", _rows(" ", _names(g), labels))
    t_hist, t_fit = tentacle_histogram(d)
    f_hist, f_fit = fiber_histogram(d)
    _write_hist(out, "tentacle_hist.txt", "tentacle hop length, count", t_hist)
    _write_hist(out, "fiber_hist.txt", "fiber inner node count, count", f_hist)
    _write_edges(out, "dense_core_edges.txt", d.dense_core)

    def fit_dict(fit):
        return None if fit is None else _fields(fit, "p", "mean", "count")

    summary = {
        "nodes": g.node_count,
        "core_size": d.core_size,
        "core_fraction": d.core_size / g.node_count,
        "tentacle_count": len(d.tentacles),
        "tentacle_node_count": d.tentacle_node_count,
        "loner_count": sum(1 for x in labels if x == "loner"),
        "fiber_count": len(d.fibers),
        "fiber_loop_count": sum(1 for f in d.fibers if f.is_loop),
        "pure_cycle_count": len(d.cycles),
        "tentacle_geometric_fit": fit_dict(t_fit),
        "fiber_geometric_fit": fit_dict(f_fit),
    }
    _write_json(out, "summary.json", summary)


# ---------------------------------------------------------------------------
# depth


def _cmd_depth(args, out: str, g: Graph) -> None:
    from .structure import depth_density_profile, depth_map

    dm = depth_map(g, mode=args.mode.mode, anchors=args.mode.k, seed=args.seed)
    _write_text(out, "depth.csv", "node,depth\n" + _rows(",", _names(g), dm.depths))
    summary = {
        "mean_depth": dm.mean_depth,
        "min_depth": min(dm.depths),
        "max_depth": max(dm.depths),
        "mode": dm.mode,
        "anchors": list(dm.anchors) if dm.anchors else None,
        "seed": dm.seed,
    }
    if args.profile_bin is not None:
        columns = zip(*depth_density_profile(g, dm, bin_width=args.profile_bin))
        _write_text(out, "profile.txt", "# depth bin start, mean degree, node count\n" + _rows(" ", *columns))
        summary["profile_bin"] = args.profile_bin
    _write_json(out, "summary.json", summary)


# ---------------------------------------------------------------------------
# personality


def _cmd_personality(args, out: str, g: Graph) -> None:
    from .structure import PERSONALITY_CLASSES, personality_report

    pr = personality_report(g, tau=args.tau)
    _write_text(
        out, "personality.csv",
        "node,degree,neighbor_mean_degree,score,class\n"
        + _rows(",", _names(g), pr.degree, pr.neighbor_mean_degree, pr.score, pr.classes),
    )
    lines = ["class,popular_pct,neutral_pct,marginal_pct\n"]
    for cls in PERSONALITY_CLASSES:
        row = pr.mixing[cls]
        if row is None:
            lines.append(f"{cls},,,\n")
        else:
            lines.append(f"{cls}," + ",".join(f"{100 * x:.1f}" for x in row) + "\n")
    _write_text(out, "mixing.csv", "".join(lines))
    _write_json(out, "summary.json", _fields(pr, "tau", "class_counts", "marginal_popular_ratio"))


# ---------------------------------------------------------------------------
# embed / reduce


def _write_coords(out: str, names: Sequence[str], ref_names: Sequence[str],
                  blocks: Iterable[np.ndarray]) -> None:
    """Write coords.csv: a header, then one "label,d1,...,dk" line per row of
    ``blocks``, which come in row order, at most 64 rows each.

    Cells come from a ``_cells`` table: ",d" for each distance d, then a
    newline. It is rebuilt whenever a block reaches past it, since the diameter
    is known only after the last block. A block's rows, each ended by the
    newline cell, are taken from the table at once, their ``_PAD`` bytes
    dropped with ``bytes.translate``, and the lines written after the UTF-8
    labels. One block is formatted at a time, so the writer
    holds 64 x k cells and one block's bytes, never the n x k matrix or the
    whole file. A run that fails part-way leaves its truncated coords.csv in
    the staging directory, which ``main`` removes.
    """
    with open(os.path.join(out, "coords.csv"), "wb") as fh:
        fh.write(("node," + ",".join(ref_names) + "\n").encode())
        cells, s = np.zeros(0, dtype="S2"), 0  # s: the first row of the next block
        for block in blocks:
            if (top := int(block.max(initial=0))) >= len(cells) - 1:
                cells = _cells([f",{d}" for d in range(top + 1)] + ["\n"])
            rows = np.empty((len(block), block.shape[1] + 1), dtype=cells.dtype)
            np.take(cells, block, out=rows[:, :-1])
            rows[:, -1] = cells[-1]
            lines = rows.tobytes().translate(None, _PAD).splitlines(keepends=True)
            fh.write(b"".join(chain.from_iterable(zip(map(str.encode, names[s : s + len(block)]), lines))))
            s += len(block)


def _cmd_embed(args, out: str, g: Graph) -> None:
    from .embedding import embed, embed_full

    names = _names(g)
    if args.refs is not None:
        # --refs is resolved before any traversal, which then runs from the references only
        e = embed(g, _resolve_nodes(g, args.refs.split(",")))
        ref_names, full = [names[r] for r in e.references], e.full
        _write_coords(out, names, ref_names, (e.coords[s : s + 64] for s in range(0, e.node_count, 64)))
    else:
        # the graph is checked before coords.csv is opened; the traversal then
        # runs one block at a time as the writer asks for it
        embed_full(g, lambda blocks: _write_coords(out, names, names, blocks))
        ref_names, full = names, True
    _write_json(out, "embedding.json", {"nodes": g.node_count, "references": ref_names, "full": full})


def _cmd_reduce(args, out: str, g: Graph) -> None:
    from .embedding import (Embedding, _check_max_pairs, _narrow_rows, build_cover_matrix, embed_full,
                            reduce_references)

    n = g.node_count
    _check_max_pairs(n, args.max_pairs)  # before the n x n table is allocated
    # the traversal's blocks go straight into a table of one or two bytes a cell,
    # which reduce_references takes as it is: no int32 n x n matrix is built
    e = Embedding(references=tuple(range(n)), coords=embed_full(g, _narrow_rows), full=True)
    r = reduce_references(build_cover_matrix(e, tolerance=args.tolerance), max_pairs=args.max_pairs)
    names = _names(g)
    _write_text(out, "refs.txt", _rows("", [names[v] for v in r.kept]))
    _write_hist(out, "distortion_hist.txt", "hop shortfall, pair count", r.distortion_histogram)
    summary = {
        "initial_references": n,
        "kept": len(r.kept),
        "essential": [names[v] for v in r.essential],
        "greedy": [names[v] for v in r.greedy],
        "tolerance": r.tolerance,
        "max_distortion": r.max_distortion,
    }
    _write_json(out, "reduction.json", summary)


# ---------------------------------------------------------------------------
# crawl family


def _cmd_crawl_sim(args, out: str, g: Graph) -> None:
    from .crawl import simulate_crawl, write_trace_csv

    start = 0 if args.start is None else _resolve_nodes(g, (args.start,))[0]
    trace = simulate_crawl(g, start=start, policy=args.policy, stride=args.stride, seed=args.seed)
    write_trace_csv(trace, os.path.join(out, "trace.csv"))
    info = _fields(trace, "policy", "stride", "seed", "samples", "true_size", "complete")
    info["start"] = g.label_of(trace.start)
    _write_json(out, "crawl.json", info)


def _cmd_estimate(args, out: str, trace: CrawlTrace) -> None:
    from .crawl import estimate_size

    est = estimate_size(trace, window=args.window)
    columns = (est.dprime, est.link_rate, est.size, est.clamped.astype(np.int64))
    _write_text(
        out, "estimate.csv",
        "sample_index,P,D,dprime,L_hat,S_hat,clamped_flag\n"
        + _rows(",", range(trace.samples), trace.p, trace.d, *(c.tolist() for c in columns)),
    )
    summary = {
        "window": est.window,
        "samples": int(est.p.size),
        "final_estimate": est.final,
        "true_size": trace.true_size,
        "clamped_samples": int(est.clamped.sum()),
    }
    if trace.true_size > 0:
        summary["final_relative_error"] = abs(est.final - trace.true_size) / trace.true_size
    _write_json(out, "estimate.json", summary)


def _cmd_fit_rational(args, out: str, trace: CrawlTrace) -> None:
    from .crawl import fit_rational

    fit = fit_rational(trace)
    d_max = max(trace.d)
    summary = _fields(fit, "a0", "a1", "a2", "a3", "a4", "rmse", "p_min", "p_max")
    summary.update(max_d=d_max, rmse_over_max_d=fit.rmse / d_max if d_max else None)
    _write_json(out, "rational.json", summary)
    curve = fit.evaluate(trace.p).tolist()
    _write_text(out, "curve.txt", "# P, D observed, D fitted\n" + _rows(" ", trace.p, trace.d, curve))


def _cmd_solve_ode(args, out: str, _) -> None:
    from .crawl import solve_acquisition_ode

    sol = solve_acquisition_ode(
        p0=args.p0, d0=args.d0, dprime0=args.dprime0, step=args.step, p_max=args.pmax
    )
    _write_text(out, "ode.csv", "P,D,dprime\n" + _rows(",", *(c.tolist() for c in (sol.p, sol.d, sol.dprime))))
    implied = sol.implied_size()
    _write_json(
        out, "ode.json",
        {
            "steps": int(sol.p.size),
            "final_p": float(sol.p[-1]),
            "final_d": float(sol.d[-1]),
            "final_dprime": float(sol.dprime[-1]),
            "implied_size_initial": float(implied[0]),
            "implied_size_final": float(implied[-1]),
            "implied_size_max_drift": float(np.max(np.abs(implied - implied[0]))),
        },
    )


# ---------------------------------------------------------------------------
# parser assembly and the one run path


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netgeom", description="Graph topology and geometry toolkit")
    parser.add_argument("--version", action="version", version=f"netgeom {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str, reads: str | None = None,
            giant: bool = False) -> argparse.ArgumentParser:
        """A subcommand, its one input for main to read (``--graph``, ``--trace`` or
        none) and, when ``giant``, the ``--giant`` flag."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")
        if reads == "graph":
            p.add_argument("--graph", required=True, help="edge list file")
        elif reads == "trace":
            p.add_argument("--trace", required=True, help="trace.csv from crawl-sim")
        if giant:
            p.add_argument("--giant", action="store_true", help="analyze the giant component only")
        p.set_defaults(func=func)
        return p

    p = add("generate", _cmd_generate, "synthesize a graph with known ground truth")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--appendage",
        nargs="+",
        metavar="KEY=VALUE",
        help="core=K10|R12:0.3 tentacles=1,2,... fibers=1,... loops=0|1",
    )
    grp.add_argument(
        "--double-pareto",
        nargs="+",
        metavar="KEY=VALUE",
        help="n=20000 alpha-left=1 alpha-right=3 break=25 min=1 max=100000",
    )
    p.add_argument("--seed", type=_at_least(int, 0), default=0, help="generator seed (recorded in meta.json)")

    p = add("stats", _cmd_stats, "whole-graph statistics report", "graph", giant=True)
    p.add_argument("--degrees", action="store_true", help="emit the degree histogram")
    p.add_argument("--fit", action="store_true",
                   help="fit a two-segment power law to the degrees (implies --degrees)")
    p.add_argument("--paths", type=_Sampling, default=None,
                   help="path-length stats: exact or sampled:K")
    p.add_argument("--seniors", type=_at_least(int, 0), default=None, metavar="N",
                   help="high-degree cohort report at degree threshold N")
    p.add_argument("--seed", type=_at_least(int, 0), default=0, help="seed for sampled path sources")

    add("decompose", _cmd_decompose, "split into dense core, tentacles and fibers", "graph", giant=True)

    p = add("depth", _cmd_depth, "per-node depth (mean hop distance to the rest)", "graph", giant=True)
    p.add_argument("--mode", type=_Sampling, default="exact", help="exact or sampled:K anchors")
    p.add_argument("--profile-bin", type=_at_least(float, 0, strict=True), default=None, metavar="W",
                   help="also emit mean degree per depth bin of width W")
    p.add_argument("--seed", type=_at_least(int, 0), default=0, help="seed for sampled anchors")

    p = add("personality", _cmd_personality, "classify nodes by neighbor-degree balance", "graph",
            giant=True)
    p.add_argument("--tau", type=_at_least(float, 0), default=0.05,
                   help="neutral band half-width on the log10 score (default 0.05)")

    p = add("embed", _cmd_embed, "hop-distance coordinates against reference nodes", "graph")
    p.add_argument("--refs", default=None,
                   help="comma-separated node tokens to embed against (default: all nodes)")

    p = add("reduce", _cmd_reduce, "shrink the reference set under a distortion budget", "graph")
    p.add_argument("--tolerance", type=_at_least(int, 0), default=0, metavar="T",
                   help="max allowed hop-distance shortfall (default 0)")
    p.add_argument("--max-pairs", type=_at_least(int, 0), default=None,
                   help="abort if the pair table would exceed this size")

    p = add("crawl-sim", _cmd_crawl_sim, "simulate a frontier crawl and record its trace", "graph")
    p.add_argument("--policy", choices=("fifo", "random"), default="fifo")
    p.add_argument("--stride", type=_at_least(int, 1), default=1, help="record every Nth processed node")
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--start", default=None, help="start node token (default: first node)")

    p = add("estimate", _cmd_estimate, "online size estimates along a recorded trace", "trace")
    p.add_argument("--window", type=_at_least(int, 2), default=None,
                   help="smoothing window in samples (default max(25, samples/100))")

    add("fit-rational", _cmd_fit_rational, "fit the rational acquisition curve to a trace", "trace")

    p = add("solve-ode", _cmd_solve_ode, "integrate the discovery balance equation")
    p.add_argument("--p0", type=_finite, default=0.0)
    p.add_argument("--d0", type=_finite, required=True)
    p.add_argument("--dprime0", type=_finite, required=True)
    p.add_argument("--step", type=_at_least(float, 0, strict=True), required=True)
    p.add_argument("--pmax", type=_finite, required=True)

    return parser


def _read_input(args) -> tuple[Graph | CrawlTrace | None, tuple[str, ...]]:
    """The subcommand's one input and the paths to digest into meta.json."""
    if hasattr(args, "graph"):
        from .graph import giant_core, load_edge_list

        with _decoded(args.graph), open(args.graph, "rb") as fh:
            g = load_edge_list(fh)
        # stats counts the whole graph before it takes the giant core itself
        if getattr(args, "giant", False) and args.func is not _cmd_stats:
            g = giant_core(g)
        return g, (args.graph,)
    if hasattr(args, "trace"):
        from .crawl import read_trace_csv

        with _decoded(args.trace):
            return read_trace_csv(args.trace), (args.trace,)
    return None, ()


@contextmanager
def _decoded(path: str) -> Iterator[None]:
    """Report input that is not UTF-8 as an input error naming ``path``.

    Inputs are read as UTF-8 whatever the locale, so a report does not depend
    on the machine; a leading byte-order mark is not part of the first label.
    """
    try:
        yield
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text ({e.reason})") from None


def main(argv: Sequence[str] | None = None) -> int:
    stage = None
    try:
        args = build_parser().parse_args(argv)
        data, inputs = _read_input(args)
        out = args.out or os.environ.get(OUT_DIR_ENV) or "."
        # the stage sits in the nearest existing directory on the way to out, so
        # publishing is a rename on one file system; an out that names a file,
        # or a path under one, fails here, before any analysis
        base = os.path.abspath(out)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        stage = tempfile.mkdtemp(prefix=".netgeom-", dir=base)
        args.func(args, stage, data)
        _write_meta(stage, args, inputs)
        os.makedirs(out, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
        return 0
    except (CliError, InputError, OSError) as e:
        code, message = 1, str(e)
    except ValueError as e:
        code, message = 2, str(e)
    except MemoryError as e:  # numpy names the allocation that failed
        code, message = 2, f"out of memory{f': {e}' if str(e) else ''}"
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
    print(f"netgeom: error: {message}", file=sys.stderr)
    return code


def run() -> NoReturn:
    """Entry point of the ``netgeom`` script and of ``python -m netgeom.cli``:
    ``main`` on ``sys.argv``, then stdout and stderr flushed and the process
    ended by ``os._exit`` with main's code, skipping interpreter teardown.

    Every report is closed and moved into the out dir before ``main`` returns,
    and netgeom registers no ``atexit`` work, so teardown would only free what
    the OS frees anyway. argparse's ``SystemExit`` (``--help``, ``--version``)
    ends here too, with its code. A stream that cannot be flushed, such as a
    stdout pipe whose reader has gone, makes an exit status of 0 into 1 and
    prints no traceback.
    """
    try:
        code = main()
    except SystemExit as e:
        code = e.code
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when its descriptor was closed at start-up
                stream.flush()
        except OSError:
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
