"""End-to-end command-line behavior: outputs, determinism, exit codes."""
from __future__ import annotations

import builtins
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

import netgeom
import netgeom.cli as cli_module
from netgeom.cli import main
from netgeom.graph import Graph, load_edge_list
from netgeom.stats import Histogram, degree_histogram
from record_cli_golden import GOLDEN_PATH, run_cases
from util import fw_distances, random_connected


def run(*argv: str) -> int:
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_p5(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text("0 1\n1 2\n2 3\n3 4\n")
    return p


class TestGenerate:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["generate", "--appendage", "core=K10", "tentacles=1,2,3",
                "fibers=2", "--seed", "7"]
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        for name in ("edges.txt", "roles.txt", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_double_pareto_outputs_and_histogram_round_trip(self, tmp_path):
        out = tmp_path / "dp"
        assert run("generate", "--double-pareto", "n=500", "alpha-left=1",
                   "alpha-right=3", "break=20", "min=2", "--seed", "3",
                   "--out", str(out)) == 0
        degrees = [int(x) for x in (out / "degrees.txt").read_text().split()]
        assert len(degrees) == 500
        assert sum(degrees) % 2 == 0
        with open(out / "edges.txt") as fh:
            g = load_edge_list(fh)
        hist = Histogram.from_text((out / "degree_hist.txt").read_text())
        assert hist == degree_histogram(g)

    def test_bad_recipe_exits_1(self, tmp_path):
        assert run("generate", "--appendage", "core=Z9",
                   "--out", str(tmp_path)) == 1
        assert run("generate", "--appendage", "tentacles=1",
                   "--out", str(tmp_path)) == 1
        assert run("generate", "--double-pareto", "n=10",
                   "--out", str(tmp_path)) == 1

    def test_random_core_recipe(self, tmp_path, capsys):
        for core in ("core=R12:1.2.3", "core=R12:."):
            assert run("generate", "--appendage", core, "--out", str(tmp_path)) == 1
            [line] = error_lines(capsys)
            assert "could not convert string to float" in line
        out = tmp_path / "r"
        assert run("generate", "--appendage", "core=R12:0.3", "tentacles=2",
                   "--seed", "4", "--out", str(out)) == 0
        roles = (out / "roles.txt").read_text().split()[1::2]
        assert sorted(roles) == ["core"] * 12 + ["loner", "tentacle"]


class TestStats:
    def test_path_graph_report(self, tmp_path):
        src = write_p5(tmp_path)
        out = tmp_path / "s"
        assert run("stats", "--graph", str(src), "--degrees",
                   "--paths", "exact", "--out", str(out)) == 0
        report = read_json(out / "report.json")
        assert report["graph"] == {
            "nodes": 5, "edges": 4, "components": 1, "giant_core_size": 5,
            "self_loops_dropped": 0, "duplicate_edges_dropped": 0,
        }
        assert report["paths"]["mean"] == 2.0
        assert report["paths"]["diameter"] == 4
        assert report["degrees"]["histogram"]["bins"] == {"1": 2, "2": 3}
        hist = Histogram.from_text((out / "degree_hist.txt").read_text())
        assert hist.bins == {1: 2, 2: 3}

    def test_fit_implies_degrees(self, tmp_path):
        # hub k has k leaves and sits on a path of hubs: degrees 1 and 2..9
        src = tmp_path / "caterpillar.txt"
        src.write_text("".join(f"h{k} h{k + 1}\n" for k in range(1, 8))
                       + "".join(f"h{k} l{k}_{j}\n" for k in range(1, 9) for j in range(k)))
        out = tmp_path / "s"
        assert run("stats", "--graph", str(src), "--fit", "--out", str(out)) == 0
        report = read_json(out / "report.json")
        assert len(report["degrees"]["histogram"]["bins"]) >= 6
        assert set(report["degrees"]["double_pareto"]) == {
            "alpha_left", "alpha_right", "break_degree", "sse", "weighted"}
        assert Histogram.from_text((out / "degree_hist.txt").read_text()).bins == \
            {int(k): v for k, v in report["degrees"]["histogram"]["bins"].items()}

    def test_seniors_section(self, tmp_path):
        src = tmp_path / "star.txt"
        src.write_text("".join(f"hub leaf{i}\n" for i in range(30)))
        out = tmp_path / "sen"
        assert run("stats", "--graph", str(src), "--seniors", "25",
                   "--out", str(out)) == 0
        report = read_json(out / "report.json")
        assert report["seniors"]["count"] == 1
        assert report["seniors"]["no_senior_neighbor_count"] == 1

    def test_giant_paths_label_the_components_twice(self, tmp_path, monkeypatch):
        """Once for the report and the giant core, once for the connectivity
        check of the path lengths; the giant core reuses the first labeling."""
        src = tmp_path / "two.txt"
        src.write_text("a b\nb c\nc a\nx y\n")
        calls = []
        real = netgeom.graph._component_ids

        def counted(g):
            calls.append(g.node_count)
            return real(g)

        monkeypatch.setattr("netgeom.graph._component_ids", counted)
        out = tmp_path / "s"
        assert run("stats", "--graph", str(src), "--giant", "--paths", "exact",
                   "--out", str(out)) == 0
        assert calls == [5, 3]
        report = read_json(out / "report.json")
        assert report["graph"]["components"] == 2
        assert report["graph"]["giant_core_size"] == 3
        assert report["paths"]["total_pairs"] == 3

    def test_meta_has_seed_and_content_digest(self, tmp_path):
        src = write_p5(tmp_path)
        out = tmp_path / "meta"
        assert run("stats", "--graph", str(src), "--seed", "11",
                   "--out", str(out)) == 0
        meta = read_json(out / "meta.json")
        assert meta["tool"] == "netgeom"
        assert meta["subcommand"] == "stats"
        assert meta["seed"] == 11
        digest = hashlib.sha256(src.read_bytes()).hexdigest()
        assert meta["inputs"] == {"p5.txt": digest}
        assert meta["config"]["graph"] == "p5.txt"


class TestPipeline:
    def test_generated_roles_survive_the_full_pass(self, tmp_path):
        gen = tmp_path / "gen"
        argv = ["generate", "--appendage", "core=K12",
                "tentacles=" + ",".join(["1", "2", "3", "4"] * 10),
                "fibers=1,2,3", "--seed", "5", "--out", str(gen)]
        assert run(*argv) == 0

        dec = tmp_path / "dec"
        assert run("decompose", "--graph", str(gen / "edges.txt"),
                   "--out", str(dec)) == 0
        truth = dict(line.split() for line in
                     (gen / "roles.txt").read_text().splitlines())
        got = dict(line.split() for line in
                   (dec / "roles.txt").read_text().splitlines())
        assert got == truth
        summary = read_json(dec / "summary.json")
        assert summary["core_size"] == 12 + 6  # core plus fiber inner nodes
        assert summary["tentacle_count"] == 40
        assert summary["fiber_count"] == 3

        per = tmp_path / "per"
        assert run("personality", "--graph", str(gen / "edges.txt"),
                   "--out", str(per)) == 0
        with open(per / "mixing.csv") as fh:
            mix_rows = list(csv.DictReader(fh))
        assert [r["class"] for r in mix_rows] == ["popular", "neutral", "marginal"]
        for r in mix_rows:
            cells = [r["popular_pct"], r["neutral_pct"], r["marginal_pct"]]
            if all(c != "" for c in cells):
                assert sum(float(c) for c in cells) == pytest.approx(100.0, abs=0.5)

        red = tmp_path / "red"
        assert run("reduce", "--graph", str(gen / "edges.txt"),
                   "--tolerance", "0", "--out", str(red)) == 0
        reduction = read_json(red / "reduction.json")
        assert reduction["max_distortion"] == 0
        assert reduction["kept"] < reduction["initial_references"]
        kept_tokens = (red / "refs.txt").read_text().split()
        assert len(kept_tokens) == reduction["kept"]
        assert set(kept_tokens) <= set(truth)

        dep = tmp_path / "dep"
        assert run("depth", "--graph", str(gen / "edges.txt"),
                   "--profile-bin", "0.25", "--out", str(dep)) == 0
        ds = read_json(dep / "summary.json")
        assert ds["min_depth"] > 0
        assert ds["min_depth"] <= ds["mean_depth"] <= ds["max_depth"]

    def test_lone_node_peels_to_a_loner(self, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("a a\n")  # the self-loop is dropped, leaving one node
        dec, dep = tmp_path / "dec", tmp_path / "dep"
        assert run("decompose", "--graph", str(src), "--out", str(dec)) == 0
        assert (dec / "roles.txt").read_text() == "a loner\n"
        summary = read_json(dec / "summary.json")
        assert (summary["core_size"], summary["tentacle_count"]) == (0, 1)
        assert run("depth", "--graph", str(src), "--out", str(dep)) == 0
        assert (dep / "depth.csv").read_text() == "node,depth\na,0.0\n"

    def test_personality_of_a_regular_graph_leaves_two_classes_empty(self, tmp_path):
        src = tmp_path / "c4.txt"
        src.write_text("a b\nb c\nc d\nd a\n")  # every node neutral: score 0
        out = tmp_path / "per"
        assert run("personality", "--graph", str(src), "--out", str(out)) == 0
        assert (out / "personality.csv").read_text() == (
            "node,degree,neighbor_mean_degree,score,class\n" + "".join(f"{v},2,2.0,0.0,neutral\n" for v in "abcd")
        )
        assert (out / "mixing.csv").read_text() == (
            "class,popular_pct,neutral_pct,marginal_pct\npopular,,,\nneutral,0.0,100.0,0.0\nmarginal,,,\n"
        )
        assert read_json(out / "summary.json") == {
            "tau": 0.05,
            "class_counts": {"popular": 0, "neutral": 4, "marginal": 0},
            "marginal_popular_ratio": None,
        }

    def test_crawl_then_estimate_recovers_size(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--double-pareto", "n=3000", "alpha-left=1",
                   "alpha-right=3", "break=30", "min=3", "--seed", "2",
                   "--out", str(gen)) == 0
        crawl = tmp_path / "crawl"
        assert run("crawl-sim", "--graph", str(gen / "edges.txt"),
                   "--policy", "fifo", "--out", str(crawl)) == 0
        info = read_json(crawl / "crawl.json")
        assert info["complete"] in (True, False)

        est = tmp_path / "est"
        assert run("estimate", "--trace", str(crawl / "trace.csv"),
                   "--out", str(est)) == 0
        summary = read_json(est / "estimate.json")
        assert summary["true_size"] == info["true_size"]
        assert summary["final_relative_error"] < 0.05

        with open(est / "estimate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["sample_index", "P", "D", "dprime",
                                        "L_hat", "S_hat", "clamped_flag"]
        assert rows[0]["S_hat"] == "nan"  # warmup
        assert float(rows[-1]["S_hat"]) == pytest.approx(
            summary["final_estimate"])

    def test_embed_matches_bfs_coordinates(self, tmp_path):
        src = write_p5(tmp_path)
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(src), "--out", str(out)) == 0
        info = read_json(out / "embedding.json")
        assert info == {"nodes": 5, "references": ["0", "1", "2", "3", "4"],
                        "full": True}
        with open(out / "coords.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["node"] == "0"
        assert [rows[0][c] for c in ("0", "1", "2", "3", "4")] == \
            ["0", "1", "2", "3", "4"]

    def test_reduce_beyond_the_diameter_keeps_one_reference(self, tmp_path):
        src = write_p5(tmp_path)  # diameter 4
        for tol in ("4", "200", "1000"):
            out = tmp_path / f"red{tol}"
            assert run("reduce", "--graph", str(src), "--tolerance", tol,
                       "--out", str(out)) == 0
            assert (out / "refs.txt").read_text() == "0\n"
            reduction = read_json(out / "reduction.json")
            assert reduction["kept"] == 1
            assert reduction["tolerance"] == int(tol)

    def test_solve_ode_conserves_implied_size(self, tmp_path):
        out = tmp_path / "ode"
        assert run("solve-ode", "--d0", "100", "--dprime0", "-0.5",
                   "--step", "0.1", "--pmax", "50", "--out", str(out)) == 0
        info = read_json(out / "ode.json")
        assert info["implied_size_max_drift"] < 1e-9 * info["implied_size_initial"]
        header = (out / "ode.csv").read_text().splitlines()[0]
        assert header == "P,D,dprime"


class TestExitCodes:
    def test_malformed_edge_list_is_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3\n")
        assert run("stats", "--graph", str(bad), "--out", str(tmp_path)) == 1

    def test_missing_input_file_is_1(self, tmp_path):
        assert run("stats", "--graph", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path)) == 1

    def test_unknown_flag_is_1(self, tmp_path):
        assert run("stats", "--graph", "x", "--frobnicate") == 1
        assert run("nonsense") == 1

    def test_analysis_precondition_is_2(self, tmp_path):
        disc = tmp_path / "disc.txt"
        disc.write_text("0 1\n2 3\n")
        assert run("depth", "--graph", str(disc), "--out", str(tmp_path)) == 2

    def test_fit_rejection_is_2(self, tmp_path):
        src = write_p5(tmp_path)
        crawl = tmp_path / "c"
        assert run("crawl-sim", "--graph", str(src), "--out", str(crawl)) == 0
        # a 5-sample trace is far below the 20-sample floor
        assert run("fit-rational", "--trace", str(crawl / "trace.csv"),
                   "--out", str(tmp_path)) == 2

    def test_unknown_start_token_is_1(self, tmp_path):
        src = write_p5(tmp_path)
        assert run("crawl-sim", "--graph", str(src), "--start", "zz",
                   "--out", str(tmp_path)) == 1


# a locale whose preferred encoding is ASCII, so any text I/O that follows the locale fails on
# non-ASCII bytes
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


class TestTextEncoding:
    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        ring = "".join(f"{i} {(i + 1) % 60}\n" for i in range(60)) + "".join(f"{i} {(i + 7) % 60}\n" for i in range(60))
        src = tmp_path / "bom.txt"
        src.write_bytes(b"\xef\xbb\xbf" + ring.encode())
        assert run("depth", "--graph", str(src), "--out", str(tmp_path / "d")) == 0
        rows = (tmp_path / "d" / "depth.csv").read_bytes().splitlines()
        assert [row.split(b",")[0] for row in rows] == [b"node"] + [b"%d" % i for i in range(60)]
        assert run("crawl-sim", "--graph", str(src), "--out", str(tmp_path / "c")) == 0
        trace = tmp_path / "c" / "trace.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())  # before the '#' header line
        for path, out in ((trace, "e"), (bom, "e-bom")):
            assert run("estimate", "--trace", str(path), "--out", str(tmp_path / out)) == 0
        assert (tmp_path / "e" / "estimate.csv").read_bytes() == (tmp_path / "e-bom" / "estimate.csv").read_bytes()

    def test_reports_have_the_same_line_ends_on_every_platform(self, tmp_path, monkeypatch):
        # a text-mode file opened with the default newline writes os.linesep for each \n
        written = {}

        def spy(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, **kw):
            if set(mode) & set("wax+"):
                written[os.path.basename(file)] = (mode, newline)
            return builtins.open(file, mode, buffering, encoding, errors, newline, **kw)

        monkeypatch.setattr(cli_module, "open", spy, raising=False)
        src = write_p5(tmp_path)
        for sub in ("depth", "embed", "decompose"):
            assert run(sub, "--graph", str(src), "--out", str(tmp_path / sub)) == 0
        assert {"depth.csv", "summary.json", "meta.json", "embedding.json", "coords.csv"} <= written.keys()
        assert {name: how for name, how in written.items() if "b" not in how[0] and how[1] != ""} == {}

    def test_non_ascii_label_round_trips_under_an_ascii_locale(self, tmp_path, child_env):
        src = tmp_path / "cafe.txt"
        src.write_bytes("café b\nb c\n".encode())
        out = tmp_path / "d"
        proc = subprocess.run([sys.executable, "-m", "netgeom.cli", "depth", "--graph", str(src),
                               "--out", str(out)], capture_output=True, env={**child_env, **C_LOCALE})
        assert proc.returncode == 0, proc.stderr
        rows = (out / "depth.csv").read_bytes().splitlines()
        assert [row.split(b",")[0] for row in rows] == [b"node", "café".encode(), b"b", b"c"]

    @pytest.mark.parametrize("argv", [("stats", "--graph"), ("estimate", "--trace")])
    def test_input_that_is_not_utf8_is_1_naming_the_path(self, tmp_path, capsys, argv):
        src = tmp_path / "latin1.txt"
        src.write_bytes("café b\n".encode("latin-1"))
        assert run(*argv, str(src), "--out", str(tmp_path / "o")) == 1
        [line] = error_lines(capsys)
        assert line.startswith(f"netgeom: error: {src}: not UTF-8 text")


def error_lines(capsys) -> list[str]:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("netgeom: error: ")
    return lines


class TestErrorLines:
    def test_max_pairs_is_checked_before_the_embedding(self, tmp_path, capsys,
                                                       monkeypatch):
        src = tmp_path / "p6.txt"
        src.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n")

        def no_embedding(g):
            raise AssertionError("embed_full ran before the max-pairs check")

        monkeypatch.setattr("netgeom.embedding.embed_full", no_embedding)
        assert run("reduce", "--graph", str(src), "--max-pairs", "10",
                   "--out", str(tmp_path / "r")) == 2
        [line] = error_lines(capsys)
        assert line.endswith("pair count 15 exceeds max_pairs=10")

    def test_step_that_cannot_advance_p_is_2(self, tmp_path, capsys):
        # 1 + 1e-20 == 1, so the integration would never reach --pmax
        out = tmp_path / "o"
        assert run("solve-ode", "--p0", "1", "--d0", "100", "--dprime0", "-0.5",
                   "--step", "1e-20", "--pmax", "2", "--out", str(out)) == 2
        [line] = error_lines(capsys)
        assert "step 1e-20 cannot advance P" in line
        assert not (out / "ode.json").exists()

    def test_step_count_over_the_limit_is_2(self, tmp_path, capsys, monkeypatch):
        # (50 - 0) / 0.5 = 100 steps; the limit is checked before the first step
        argv = ["solve-ode", "--d0", "100", "--dprime0", "-0.5", "--step", "0.5", "--pmax", "50"]
        monkeypatch.setattr("netgeom.crawl._MAX_ODE_STEPS", 99)
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        [line] = error_lines(capsys)
        assert line == "netgeom: error: 100 Runge-Kutta steps from p0 to p_max exceed the limit of 99"
        assert not (tmp_path / "o").exists()
        monkeypatch.setattr("netgeom.crawl._MAX_ODE_STEPS", 100)  # the limit itself is allowed
        assert run(*argv, "--out", str(tmp_path / "o")) == 0
        assert json.loads((tmp_path / "o" / "ode.json").read_text())["steps"] == 101  # P = 0 counts too

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 95.4 MiB for an array",
         "netgeom: error: out of memory: Unable to allocate 95.4 MiB for an array"),
        ("", "netgeom: error: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_one_line_exit_2(self, tmp_path, capsys, monkeypatch, message, line):
        src = write_p5(tmp_path)

        def no_memory(g):
            raise MemoryError(message)

        monkeypatch.setattr("netgeom.embedding.embed_full", no_memory)
        assert run("reduce", "--graph", str(src), "--out", str(tmp_path / "r")) == 2
        assert error_lines(capsys) == [line]

    @pytest.mark.parametrize("sub", ["embed", "reduce"])
    def test_disconnected_graph_is_2_before_the_embedding(self, tmp_path, capsys,
                                                         monkeypatch, sub):
        disc = tmp_path / "disc.txt"
        disc.write_text("0 1\n1 2\n3 4\n")

        def no_traversal(*args):
            raise AssertionError("a traversal ran before the connectivity check")

        monkeypatch.setattr("netgeom.embedding._distance_blocks", no_traversal)
        assert run(sub, "--graph", str(disc), "--out", str(tmp_path / sub)) == 2
        [line] = error_lines(capsys)
        assert line.endswith("graph is disconnected (2 components); embed one component at a time")

    def test_short_trace_row_is_1_with_line_number(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        trace.write_text("# policy=fifo\nsample_index,P,D\n0,1,1\n1,2\n")
        assert run("estimate", "--trace", str(trace),
                   "--out", str(tmp_path / "e")) == 1
        [line] = error_lines(capsys)
        assert "line 4:" in line

    def test_non_integer_trace_cell_is_1_with_line_number(self, tmp_path, capsys):
        trace = tmp_path / "nonint.csv"
        trace.write_text("sample_index,P,D\n0,1,x\n")
        assert run("fit-rational", "--trace", str(trace),
                   "--out", str(tmp_path / "f")) == 1
        [line] = error_lines(capsys)
        assert "line 2:" in line

    def test_non_integer_trace_header_is_1_with_line_number(self, tmp_path, capsys):
        trace = tmp_path / "header.csv"
        trace.write_text("# policy=fifo stride=x\nsample_index,P,D\n0,1,1\n1,2,1\n")
        assert run("estimate", "--trace", str(trace),
                   "--out", str(tmp_path / "e")) == 1
        [line] = error_lines(capsys)
        assert "line 1:" in line and "stride=x" in line

    def test_non_increasing_trace_is_1_with_line_number(self, tmp_path, capsys):
        trace = tmp_path / "unordered.csv"
        trace.write_text("sample_index,P,D\n0,2,1\n1,1,1\n")
        assert run("estimate", "--trace", str(trace),
                   "--out", str(tmp_path / "e")) == 1
        [line] = error_lines(capsys)
        assert "line 3:" in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text, line_no", [
        ("sample_index,P,D\n0,1,1\n1,99999999999999999999,1\n", 3),
        ("# true_size=" + "9" * 401 + "\nsample_index,P,D\n0,1,1\n", 1),
    ], ids=["p-cell", "true-size-header"])
    def test_trace_value_beyond_64_bits_is_1_with_line_number(self, tmp_path, capsys, text, line_no):
        trace = tmp_path / "big.csv"
        trace.write_text(text)
        assert run("estimate", "--trace", str(trace), "--out", str(tmp_path / "e")) == 1
        [line] = error_lines(capsys)
        assert f"line {line_no}:" in line and "64-bit" in line

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("first_p", [2**53 + 1, 2**63 - 600], ids=["past-2**53", "near-2**63"])
    def test_trace_value_past_2_53_is_2(self, tmp_path, capsys, first_p):
        # float64 would round these P values, so the estimate would not be of the trace read
        trace = tmp_path / "big.csv"
        rows = "".join(f"{i},{first_p + 2 * i},{30 - i}\n" for i in range(30))
        trace.write_text("sample_index,P,D\n" + rows)
        assert run("estimate", "--trace", str(trace), "--window", "2", "--out", str(tmp_path / "e")) == 2
        [line] = error_lines(capsys)
        assert line.endswith("|P| and |D| must not exceed 2**53: float64 cannot hold every integer above it")
        assert not (tmp_path / "e").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("first_p, first_d, samples, window", [
        (2**30, 30, 30, ["--window", "2"]),
        (2**40, 1000, 40, []),  # the default window, 25 samples
    ], ids=["2**30-window-2", "2**40-default-window"])
    def test_non_finite_window_slope_is_2(self, tmp_path, capsys, first_p, first_d, samples, window):
        # P in unit steps far from 0: the spread of P that the window's prefix sums give rounds to 0
        trace = tmp_path / "far.csv"
        rows = "".join(f"{i},{first_p + i},{first_d - i}\n" for i in range(samples))
        trace.write_text("sample_index,P,D\n" + rows)
        assert run("estimate", "--trace", str(trace), *window, "--out", str(tmp_path / "e")) == 2
        [line] = error_lines(capsys)
        assert line.endswith("samples is not finite: P too large for its spread")
        assert not (tmp_path / "e").exists()

    def test_stats_on_empty_edge_list_is_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no edges\n")
        assert run("stats", "--graph", str(empty),
                   "--out", str(tmp_path / "s")) == 2
        error_lines(capsys)

    def test_embed_refs_resolves_every_token(self, tmp_path, capsys, monkeypatch):
        src = write_p5(tmp_path)
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(src), "--refs", "4,0,2",
                   "--out", str(out)) == 0
        info = read_json(out / "embedding.json")
        assert info["references"] == ["4", "0", "2"]

        def no_traversal(*args):
            raise AssertionError("a traversal ran before --refs was resolved")

        monkeypatch.setattr("netgeom.embedding.embed_full", no_traversal)
        monkeypatch.setattr("netgeom.embedding._distance_blocks", no_traversal)
        assert run("embed", "--graph", str(src), "--refs", "4,zz",
                   "--out", str(out)) == 1
        [line] = error_lines(capsys)
        assert "'zz'" in line
        assert run("embed", "--graph", str(src), "--refs", "", "--out", str(out)) == 1
        [line] = error_lines(capsys)
        assert line.endswith("node '' not present in the graph")


def write_labeled(path, n: int, seed: int) -> Graph:
    """A random connected graph of n nodes with shuffled labels, written as an
    edge list, and the graph the loader reads back from it."""
    rng = random.Random(seed)
    g = random_connected(n, n, rng)
    label = [f"n{v}" for v in rng.sample(range(n), n)]
    lines = [f"{label[a]} {label[b]}\n" for a, b in g.edges()] if n > 1 else ["n0 n0\n"]
    path.write_text("".join(lines))
    with open(path) as fh:
        return load_edge_list(fh)


def coords_oracle(g: Graph, refs) -> str:
    """coords.csv of ``g`` against ``refs``, from Floyd-Warshall distances."""
    dist = fw_distances(g)
    names = [g.label_of(v) for v in range(g.node_count)]
    rows = (names[v] + "".join(f",{int(dist[v][r])}" for r in refs) + "\n" for v in range(g.node_count))
    return "node," + ",".join(names[r] for r in refs) + "\n" + "".join(rows)


class TestEmbedStream:
    """``embed`` writes coords.csv from the kernel's blocks of 64 rows."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_coords_equal_the_distance_oracle(self, tmp_path, n):
        g = write_labeled(tmp_path / "g.txt", n, seed=n)
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(tmp_path / "g.txt"), "--out", str(out)) == 0
        assert (out / "coords.csv").read_bytes() == coords_oracle(g, range(n)).encode("utf-8")
        assert read_json(out / "embedding.json") == {
            "nodes": n, "references": [g.label_of(v) for v in range(n)], "full": True,
        }

    def test_later_blocks_reach_past_the_first(self, tmp_path):
        # nodes 0..63 (the first block) are a star whose hub ends two 40-node
        # paths: the first block reaches 41 hops, the path ends 80
        edges = [(0, i) for i in range(1, 64)]
        for start in (64, 104):
            edges += [(0, start)] + [(v, v + 1) for v in range(start, start + 39)]
        src = tmp_path / "g.txt"
        src.write_text("".join(f"{a} {b}\n" for a, b in edges))
        with open(src) as fh:
            g = load_edge_list(fh)
        dist = fw_distances(g)
        assert max(max(row) for row in dist[:64]) == 41 and max(max(row) for row in dist) == 80
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(src), "--out", str(out)) == 0
        assert (out / "coords.csv").read_bytes() == coords_oracle(g, range(g.node_count)).encode("utf-8")

    def test_refs_with_repeats_keep_their_bytes(self, tmp_path):
        g = write_labeled(tmp_path / "g.txt", 130, seed=5)
        refs = [129, 3, 129, 70, 0, 3]
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(tmp_path / "g.txt"), "--out", str(out),
                   "--refs", ",".join(g.label_of(r) for r in refs)) == 0
        assert (out / "coords.csv").read_bytes() == coords_oracle(g, refs).encode("utf-8")
        assert read_json(out / "embedding.json") == {
            "nodes": 130, "references": [g.label_of(r) for r in refs], "full": False,
        }

    @pytest.mark.parametrize("refs", [None, [0, 3, 0]], ids=["full", "refs"])
    @pytest.mark.parametrize("shape", ["multibyte", "path", "broom"])
    def test_coords_bytes(self, tmp_path, shape, refs):
        # multibyte: 2- and 3-byte UTF-8 labels; path: 102 nodes in label
        # order, so cells run from 1 to 3 digits and, with --refs, only the
        # second block reaches 3; broom: a hub with 63 leaves, then a 100-node
        # tail, so with --refs the first block's cells have 1 digit
        if shape == "multibyte":
            g = random_connected(70, 70, random.Random(3))
            label = [f"é{v}" if v % 2 else f"узел{v}" for v in range(70)]
            edges = [(label[a], label[b]) for a, b in g.edges()]
        elif shape == "path":
            edges = [(f"p{v}", f"p{v + 1}") for v in range(101)]
        else:
            edges = [("hub", f"leaf{v}") for v in range(63)] + [("hub", "t0")]
            edges += [(f"t{v}", f"t{v + 1}") for v in range(99)]
        src = tmp_path / "g.txt"
        src.write_bytes("".join(f"{a} {b}\n" for a, b in edges).encode("utf-8"))
        with open(src, "rb") as fh:
            g = load_edge_list(fh)
        out = tmp_path / "emb"
        flags = [] if refs is None else ["--refs", ",".join(g.label_of(r) for r in refs)]
        assert run("embed", "--graph", str(src), "--out", str(out), *flags) == 0
        expected = coords_oracle(g, range(g.node_count) if refs is None else refs)
        assert (out / "coords.csv").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("text, refs", [
        ("# no edges\n", []),
        ("0 1\n1 2\n3 4\n", []),
        ("0 1\n1 2\n3 4\n", ["--refs", "0"]),
    ], ids=["empty", "disconnected", "disconnected-refs"])
    def test_failed_precondition_writes_no_coords(self, tmp_path, capsys, text, refs):
        src = tmp_path / "g.txt"
        src.write_text(text)
        out = tmp_path / "emb"
        assert run("embed", "--graph", str(src), *refs, "--out", str(out)) == 2
        error_lines(capsys)
        assert not (out / "coords.csv").exists()

    def test_failure_after_the_first_block_leaves_the_old_coords(self, tmp_path, capsys,
                                                                 monkeypatch):
        write_labeled(tmp_path / "g.txt", 130, seed=7)
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert run("embed", "--graph", str(tmp_path / "g.txt"), "--out", str(rerun)) == 0
        before = (rerun / "coords.csv").read_bytes()
        real = netgeom.embedding._distance_blocks

        def first_block_only(g, sources):
            blocks = real(g, sources)
            yield next(blocks)
            raise MemoryError

        monkeypatch.setattr("netgeom.embedding._distance_blocks", first_block_only)
        for out in (fresh, rerun):
            assert run("embed", "--graph", str(tmp_path / "g.txt"), "--out", str(out)) == 2
            assert error_lines(capsys) == ["netgeom: error: out of memory"]
        assert not fresh.exists()
        assert (rerun / "coords.csv").read_bytes() == before
        assert sorted(os.listdir(rerun)) == ["coords.csv", "embedding.json", "meta.json"]

    def test_peak_memory_is_under_half_the_distance_matrix(self, tmp_path):
        n = 1500
        write_labeled(tmp_path / "g.txt", n, seed=15)
        tracemalloc.start()
        try:
            assert run("embed", "--graph", str(tmp_path / "g.txt"), "--out", str(tmp_path / "emb")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 4 // 2, f"peak {peak / 2**20:.1f} MiB"


class TestFlagValues:
    """Out-of-range flag values exit 1 at parse time: the input named here does
    not exist, so an error about anything but the flag means it was read."""

    BAD = {
        "--seniors": ["stats", "--graph", "{missing}", "--seniors", "-1"],
        "--paths": ["stats", "--graph", "{missing}", "--paths", "sampled:0"],
        "--mode": ["depth", "--graph", "{missing}", "--mode", "fast"],
        "--profile-bin": ["depth", "--graph", "{missing}", "--profile-bin", "0"],
        "--tau": ["personality", "--graph", "{missing}", "--tau", "-0.5"],
        "--tolerance": ["reduce", "--graph", "{missing}", "--tolerance", "-1"],
        "--max-pairs": ["reduce", "--graph", "{missing}", "--max-pairs", "-1"],
        "--stride": ["crawl-sim", "--graph", "{missing}", "--stride", "0"],
        "--window": ["estimate", "--trace", "{missing}", "--window", "1"],
        "--step": ["solve-ode", "--d0", "100", "--dprime0", "-0.5", "--pmax", "50",
                   "--step", "0"],
    }

    @pytest.mark.parametrize("flag", sorted(BAD))
    def test_out_of_range_value_is_1_before_input(self, tmp_path, capsys, flag):
        argv = [a.format(missing=tmp_path / "missing.txt") for a in self.BAD[flag]]
        assert run(*argv, "--out", str(tmp_path / "o")) == 1
        [line] = error_lines(capsys)
        assert f"argument {flag}: " in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["generate", "--appendage", "core=K4"],
        ["stats", "--graph", "{missing}", "--paths", "sampled:2"],
        ["depth", "--graph", "{missing}", "--mode", "sampled:2"],
        ["crawl-sim", "--graph", "{missing}", "--policy", "random"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_1_before_input(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
        assert run(*argv, "--seed", "-1", "--out", str(tmp_path / "o")) == 1
        [line] = error_lines(capsys)
        assert line.endswith("argument --seed: must be >= 0, got '-1'")
        assert not (tmp_path / "o").exists()

    # a valid solve-ode run; the flag under test is repeated after it, and the
    # last occurrence wins
    SOLVE = ["solve-ode", "--d0", "100", "--dprime0", "-0.5", "--step", "0.5", "--pmax", "50"]
    NON_FINITE = {
        "--p0": SOLVE,
        "--d0": SOLVE,
        "--dprime0": SOLVE,
        "--step": SOLVE,
        "--pmax": SOLVE,
        "--profile-bin": ["depth", "--graph", "{missing}"],
        "--tau": ["personality", "--graph", "{missing}"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", sorted(NON_FINITE))
    def test_non_finite_value_is_1_before_input(self, tmp_path, capsys, flag, value):
        # meta.json echoes every flag, and JSON has no NaN or Infinity
        argv = [a.format(missing=tmp_path / "missing.txt") for a in self.NON_FINITE[flag]]
        assert run(*argv, f"{flag}={value}", "--out", str(tmp_path / "o")) == 1
        [line] = error_lines(capsys)
        assert line.endswith(f"argument {flag}: must be finite, got {value!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["alpha-left", "alpha-right"])
    def test_non_finite_recipe_exponent_is_1(self, tmp_path, capsys, key, value):
        recipe = {"alpha-left": "1", "alpha-right": "3", key: value}
        argv = ["generate", "--double-pareto", "n=10", "break=5",
                *(f"{k}={v}" for k, v in recipe.items())]
        assert run(*argv, "--out", str(tmp_path / "o")) == 1
        [line] = error_lines(capsys)
        assert line.endswith("exponents must be finite and > 0")
        assert not (tmp_path / "o" / "degrees.txt").exists()

    def test_profile_bin_is_rejected_before_the_depth_map(self, tmp_path, capsys,
                                                          monkeypatch):
        src = write_p5(tmp_path)

        def no_depth_map(*args, **kwargs):
            raise AssertionError("depth_map ran before --profile-bin was checked")

        monkeypatch.setattr("netgeom.structure.depth_map", no_depth_map)
        assert run("depth", "--graph", str(src), "--profile-bin", "0",
                   "--out", str(tmp_path / "d")) == 1
        [line] = error_lines(capsys)
        assert line.endswith("argument --profile-bin: must be > 0, got '0'")

    def test_boundary_values_are_accepted(self, tmp_path):
        src = write_p5(tmp_path)
        out = str(tmp_path / "b")
        assert run("reduce", "--graph", str(src), "--tolerance", "0", "--out", out) == 0
        assert run("crawl-sim", "--graph", str(src), "--stride", "1", "--out", out) == 0
        assert run("estimate", "--trace", os.path.join(out, "trace.csv"),
                   "--window", "2", "--out", out) == 0


class TestGolden:
    def test_every_output_file_matches_its_recorded_digest(self, tmp_path):
        expected = json.loads(GOLDEN_PATH.read_text())
        got = run_cases(tmp_path)
        assert sorted(got) == sorted(expected)
        assert [name for name in got if got[name] != expected[name]] == []


class TestOutputLocation:
    def test_environment_variable_sets_default_out_dir(self, tmp_path, monkeypatch):
        src = write_p5(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("NETGEOM_OUT", str(target))
        assert run("stats", "--graph", str(src)) == 0
        assert (target / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["depth", "--graph", "{missing}"],
        ["generate", "--double-pareto", "n=10", "alpha-left=nan", "alpha-right=3", "break=5"],
        ["generate", "--appendage", "core=K2"],
        ["generate", "--appendage", "core=K4", "tentacles"],
        ["generate", "--appendage", "core=K4", "color=3"],
        ["generate", "--appendage", "core=K4", "core=K5"],
        ["generate", "--appendage", "core=K4", "tentacles=1,x"],
    ], ids=["missing-graph", "nan-recipe", "small-core", "recipe-token-without-value", "recipe-unknown-key",
            "recipe-duplicate-key", "recipe-non-integer-list"])
    def test_input_error_makes_no_out_dir(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
        for out in (tmp_path / "o", tmp_path / "new" / "o"):
            assert run(*argv, "--out", str(out)) == 1
            error_lines(capsys)
        assert os.listdir(tmp_path) == []  # neither out dir nor a staging directory

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, reports", [
        (["generate", "--appendage", "core=K3", "tentacles=1"], ["edges.txt", "roles.txt"]),
        (["depth", "--graph", "{inputs}/disc.txt"], ["depth.csv", "summary.json"]),
        # implied sizes of 1e600 and 1e350: past the float range before the first step
        (["solve-ode", "--d0", "1e300", "--dprime0", "1e300", "--step", "0.001", "--pmax", "2"],
         ["ode.csv", "ode.json"]),
        (["solve-ode", "--d0", "1e200", "--dprime0", "1e150", "--step", "0.5", "--pmax", "2"],
         ["ode.csv", "ode.json"]),
        # the last three fail after they have written their first report
        (["stats", "--graph", "{inputs}/three_bins.txt", "--degrees", "--fit"],
         ["degree_hist.txt", "report.json"]),
        (["estimate", "--trace", "{inputs}/header_only.csv"], ["estimate.csv", "estimate.json"]),
        (["depth", "--graph", "{inputs}/p5.txt", "--profile-bin", "1e-320"],
         ["depth.csv", "profile.txt", "summary.json"]),
    ], ids=["core-without-hosts", "disconnected-depth", "ode-overflow", "ode-non-finite",
            "fit-three-bins", "estimate-header-only", "profile-bin-overflow"])
    def test_analysis_error_removes_only_the_dirs_it_made(self, tmp_path, capsys, argv, reports):
        inputs = tmp_path / "in"
        inputs.mkdir()
        write_p5(inputs)
        (inputs / "disc.txt").write_text("0 1\n2 3\n")
        (inputs / "three_bins.txt").write_text("0 1\n1 2\n2 3\n1 4\n")  # degrees 1, 2 and 3
        (inputs / "header_only.csv").write_text("# policy=fifo\nsample_index,P,D\n")
        argv = [a.format(inputs=inputs) for a in argv]
        for out in (tmp_path / "o", tmp_path / "new" / "o"):
            assert run(*argv, "--out", str(out)) == 2
            error_lines(capsys)
        assert sorted(os.listdir(tmp_path)) == ["in"]
        empty, used = tmp_path / "empty", tmp_path / "used"
        empty.mkdir()
        used.mkdir()
        # a report of an earlier run under every name this command writes
        earlier = {name: f"earlier {name}\n" for name in reports + ["meta.json"]}
        for name, text in earlier.items():
            (used / name).write_text(text)
        for out in (empty, used, used / "o"):
            assert run(*argv, "--out", str(out)) == 2
            error_lines(capsys)
        assert os.listdir(empty) == []
        assert {p.name: p.read_text() for p in used.iterdir()} == earlier

    def test_out_naming_a_file_is_1_before_the_analysis(self, tmp_path, capsys, monkeypatch):
        src = write_p5(tmp_path)

        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran before --out was checked")

        monkeypatch.setattr("netgeom.structure.depth_map", no_analysis)
        for out in (src, src / "o"):
            assert run("depth", "--graph", str(src), "--out", str(out)) == 1
            error_lines(capsys)
        assert src.read_text() == "0 1\n1 2\n2 3\n3 4\n"
        assert os.listdir(tmp_path) == ["p5.txt"]

    def test_explicit_out_beats_environment(self, tmp_path, monkeypatch):
        src = write_p5(tmp_path)
        monkeypatch.setenv("NETGEOM_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert run("stats", "--graph", str(src), "--out", str(out)) == 0
        assert (out / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


@pytest.fixture
def child_env():
    """Environment for a child process that imports the same netgeom source
    as this test session, whatever the inherited PYTHONPATH resolves to."""
    env = dict(os.environ)
    source_root = str(Path(netgeom.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (source_root + os.pathsep + inherited
                         if inherited else source_root)
    return env


@pytest.fixture
def console_script_env(child_env, tmp_path):
    """`child_env` with the console scripts declared under `[project.scripts]`
    in pyproject.toml first on PATH, written as pip writes them on install.

    The targets come from the declaration itself, so a wrong or missing
    entry point fails the test that runs the script."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        script = bin_dir / name
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr.split('.')[0]}\n"
            f"sys.exit({attr}())\n")
        script.chmod(0o755)
    child_env["PATH"] = str(bin_dir) + os.pathsep + child_env.get("PATH", "")
    return child_env


class TestConsoleScript:
    def test_version_flag(self, child_env):
        proc = subprocess.run([sys.executable, "-m", "netgeom.cli", "--version"],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("netgeom ")

    def test_installed_entry_point_runs(self, tmp_path, console_script_env):
        src = write_p5(tmp_path)
        out = tmp_path / "ep"
        proc = subprocess.run(
            ["netgeom", "stats", "--graph", str(src), "--out", str(out)],
            capture_output=True, text=True, env=console_script_env)
        assert proc.returncode == 0, proc.stderr
        report = read_json(out / "report.json")
        assert report["graph"]["nodes"] == 5
        assert report["graph"]["edges"] == 4
        assert report["graph"]["components"] == 1

        # main's return value is the script's exit status
        proc = subprocess.run(
            ["netgeom", "generate", "--appendage", "core=Z9",
             "--out", str(tmp_path / "bad")],
            capture_output=True, text=True, env=console_script_env)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("netgeom: error: ")


def loaded_modules(child_env, code: str, *argv: str) -> list[str]:
    """The netgeom modules a child process has loaded after running ``code``,
    which gets ``argv`` as ``sys.argv[1:]``."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'netgeom')))", *argv],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImports:
    """Each subcommand loads only its own layers: a process pays to compile and
    run those modules alone."""

    RUN_MAIN = "import sys\nfrom netgeom.cli import main\nassert main(sys.argv[1:]) == 0"

    def test_stats_loads_the_graph_and_stats_layers_only(self, tmp_path, child_env):
        src = tmp_path / "g.txt"
        src.write_text("0 1\n1 2\n2 0\n3 4\n")
        assert loaded_modules(
            child_env, self.RUN_MAIN, "stats", "--graph", str(src), "--giant", "--degrees",
            "--paths", "sampled:2", "--seniors", "1", "--out", str(tmp_path / "s"),
        ) == ["netgeom", "netgeom.cli", "netgeom.graph", "netgeom.stats"]

    def test_fit_rational_loads_no_structure_embedding_or_generators(self, tmp_path, child_env):
        src = tmp_path / "ring.txt"
        src.write_text("".join(f"{i} {(i + 1) % 60}\n{i} {(i + 7) % 60}\n" for i in range(60)))
        assert run("crawl-sim", "--graph", str(src), "--out", str(tmp_path / "c")) == 0
        assert loaded_modules(
            child_env, self.RUN_MAIN, "fit-rational", "--trace", str(tmp_path / "c" / "trace.csv"),
            "--out", str(tmp_path / "f"),
        ) == ["netgeom", "netgeom.cli", "netgeom.crawl", "netgeom.graph", "netgeom.stats"]

    def test_import_netgeom_loads_no_layer_and_every_public_name_resolves(self, child_env):
        assert loaded_modules(child_env, "import netgeom") == ["netgeom"]
        resolve = ("import netgeom\n"
                   "for name in netgeom.__all__:\n"
                   "    assert getattr(netgeom, name).__name__ == name, name\n"
                   "from netgeom import Graph, InputError, fit_rational, reduce_references, "
                   "generate_appendage_graph, decompose\n"
                   "assert netgeom.crawl.fit_rational is fit_rational")
        assert loaded_modules(child_env, resolve) == [
            "netgeom", "netgeom.crawl", "netgeom.embedding", "netgeom.generators",
            "netgeom.graph", "netgeom.stats", "netgeom.structure"]


    def test_public_table_lists_every_name_of_each_module_all(self):
        # the constants stay out: they have no __name__, which the test above requires
        for module, names in netgeom._PUBLIC.items():
            exported = import_module(f"netgeom.{module}").__all__
            assert set(names) == {name for name in exported if not name.isupper()}, module


class TestRuntimeDependencies:
    def test_stats_imports_neither_scipy_nor_networkx(self, tmp_path, child_env):
        # numpy is the only runtime dependency, even where scipy and networkx are
        # installed; -X importtime lists every module the process imports
        src = tmp_path / "g.txt"
        src.write_text("0 1\n1 2\n2 0\n3 4\n5 5\n")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "netgeom.cli", "stats", "--graph", str(src),
             "--giant", "--degrees", "--paths", "exact", "--seniors", "2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                    for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert {"netgeom", "numpy"} <= imported
        assert not imported & {"scipy", "networkx"}


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def blas_env(child_env):
    """`child_env` without the BLAS thread variables, which this session's own
    import of netgeom.cli has set."""
    for var in BLAS_VARS:
        child_env.pop(var, None)
    return child_env


class TestBlasThreads:
    """The CLI runs numpy's BLAS on one thread unless the caller chose a count;
    a library import leaves the environment alone."""

    REPORT = ("\nimport json, os, sys\n"
              "threads = None\n"
              "if sys.platform.startswith('linux'):\n"
              "    with open('/proc/self/status') as fh:\n"
              "        threads = [int(line.split()[1]) for line in fh if line.startswith('Threads:')][0]\n"
              f"print(json.dumps([{{v: os.environ.get(v) for v in {BLAS_VARS!r}}}, threads]))")

    def state(self, env, code: str) -> tuple[dict, int | None]:
        """The BLAS variables and, on Linux, the thread count of a child process after ``code``."""
        proc = subprocess.run([sys.executable, "-c", code + self.REPORT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        variables, threads = json.loads(proc.stdout.splitlines()[-1])
        return variables, threads

    def test_cli_import_sets_one_thread(self, blas_env):
        variables, threads = self.state(blas_env, "import netgeom.cli")
        assert variables == dict.fromkeys(BLAS_VARS, "1")
        if sys.platform.startswith("linux"):
            assert threads == 1

    def test_caller_value_is_kept(self, blas_env):
        variables, _ = self.state({**blas_env, "OPENBLAS_NUM_THREADS": "2"}, "import netgeom.cli")
        assert variables == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def test_library_import_sets_none(self, blas_env):
        variables, _ = self.state(blas_env, "import netgeom\nnetgeom.Graph\nnetgeom.fit_rational")
        assert variables == dict.fromkeys(BLAS_VARS)

    def test_fit_rational_reports_do_not_depend_on_the_thread_count(self, tmp_path, blas_env):
        gen, crawl = tmp_path / "gen", tmp_path / "crawl"
        assert run("generate", "--double-pareto", "n=2000", "alpha-left=1", "alpha-right=3",
                   "break=20", "min=2", "--seed", "5", "--out", str(gen)) == 0
        assert run("crawl-sim", "--graph", str(gen / "edges.txt"), "--policy", "random",
                   "--seed", "5", "--out", str(crawl)) == 0
        reports = {}
        for threads in ("1", "2"):
            out = tmp_path / f"fit{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "netgeom.cli", "fit-rational", "--trace", str(crawl / "trace.csv"),
                 "--out", str(out)],
                capture_output=True, text=True, env={**blas_env, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            reports[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(reports["1"]) == ["curve.txt", "meta.json", "rational.json"]
        assert reports["1"] == reports["2"]
