"""Graph construction, parsing, BFS, and component extraction."""
from __future__ import annotations

import codecs
import io
import os
import random
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netgeom._edgelist as edgelist_module
import netgeom.embedding as embedding_module
import netgeom.graph as graph_module
import netgeom.stats as stats_module
import netgeom.structure as structure_module
from netgeom.cli import _write_edges, main
from netgeom.crawl import simulate_crawl, solve_acquisition_ode
from netgeom.embedding import build_cover_matrix, embed, embed_full, embedding_distortion, reduce_references
from netgeom.generators import (
    AppendageSpec,
    DoubleParetoSpec,
    configuration_model,
    generate_appendage_graph,
    generate_double_pareto_degrees,
)
from netgeom._edgelist import _byte_tokens, _line_tokens
from netgeom.graph import (
    UNREACHABLE,
    EdgeListParseError,
    Graph,
    bfs,
    components,
    giant_core,
    induced_subgraph,
    load_edge_list,
    _component_ids,
    _distance_blocks,
    _row_ranges,
    _row_sums,
)
from netgeom.structure import decompose

from util import (
    INF,
    check_csr,
    crawl_oracle,
    edge_list_tokens_oracle,
    from_edges,
    fw_distances,
    oracle_two_core,
    parse_edge_list_oracle,
    random_connected,
    random_graph,
    restrict,
    uf_components,
)


class TestParsing:
    def test_labels_get_dense_ids_in_first_appearance_order(self):
        g = load_edge_list(["alice bob", "bob carol", "dave alice"])
        assert g.labels == ("alice", "bob", "carol", "dave")
        assert g.node_count == 4
        assert g.edge_count == 3
        assert g.label_of(2) == "carol"

    def test_comments_and_blank_lines_are_skipped(self):
        g = load_edge_list(["# header", "", "  ", "1 2", "# mid", "2 3"])
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_self_loops_and_duplicates_are_dropped_and_counted(self):
        g = load_edge_list(["1 2", "2 1", "1 1", "1 2", "2 3", "3 3"])
        assert g.edge_count == 2
        assert g.duplicate_edges_dropped == 2
        assert g.self_loops_dropped == 2

    def test_malformed_line_reports_its_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(["1 2", "whoops", "3 4"])
        assert exc.value.line_no == 2
        with pytest.raises(EdgeListParseError):
            load_edge_list(["1 2 3"])

    def test_parse_error_is_a_value_error(self):
        assert issubclass(EdgeListParseError, ValueError)

    def test_large_parse_matches_independent_recount(self):
        rng = random.Random(42)
        lines = []
        ref_edges: set[tuple[int, int]] = set()
        ref_nodes: set[int] = set()
        loops = dups = 0
        for _ in range(10_000):
            a, b = rng.randrange(400), rng.randrange(400)
            lines.append(f"{a} {b}")
            ref_nodes.update((a, b))
            if a == b:
                loops += 1
            else:
                key = (min(a, b), max(a, b))
                if key in ref_edges:
                    dups += 1
                else:
                    ref_edges.add(key)
        g = load_edge_list(lines)
        assert g.node_count == len(ref_nodes)
        assert g.edge_count == len(ref_edges)
        assert g.self_loops_dropped == loops
        assert g.duplicate_edges_dropped == dups
        got = {(g.label_of(a), g.label_of(b)) for a, b in g.edges()}
        want = set()
        for a, b in ref_edges:
            la, lb = str(a), str(b)
            want.add((la, lb) if (la, lb) in got else (lb, la))
        assert got == want


# ASCII separators str.split() knows besides "\n" and "\r"; the mixed texts add non-ASCII ones
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
WIDE_SPACES = SPACES + ["\u3000", "\x85"]
KEYED = st.text(alphabet="ab1#", min_size=1, max_size=8)  # '#' inside or leading a second token
LONG = st.text(alphabet="ab1#", min_size=9, max_size=12)  # too long for one 8-byte key
ODD = st.builds("{}{}{}".format, st.text(alphabet="ab1#", max_size=5), st.sampled_from(["é", "\x00"]),
                st.text(alphabet="ab1#", max_size=5))


def line_kinds(label, space):
    """Edge, comment, blank and malformed line strategies over ``label`` tokens and ``space`` separators."""
    lead = st.one_of(st.just(""), space)
    first = label.filter(lambda t: not t.startswith("#"))
    edge = st.builds("{}{}{}{}{}".format, lead, first, st.lists(space, min_size=1, max_size=3).map("".join),
                     label, lead)
    comment = st.builds("{}#{}".format, lead, st.text(alphabet="ab #\t\x0b", max_size=12))
    blank = st.one_of(st.just(""), space)
    bad = st.builds("{}{}".format, lead, st.lists(first, min_size=1, max_size=4)
                    .filter(lambda t: len(t) != 2).map(" ".join))
    return edge, comment, blank, bad


KEYED_LINES = line_kinds(KEYED, st.sampled_from(SPACES))  # every chunk can take the byte path
MIXED_LINES = line_kinds(st.one_of(*[KEYED] * 8, LONG, ODD), st.sampled_from(WIDE_SPACES))


@st.composite
def edge_list_text(draw, bad: bool = False, min_lines: int = 0):
    """Edge-list text of at least ``min_lines`` data, comment and blank lines with
    LF or CRLF endings, with or without a final newline; ``bad`` puts in at least
    one malformed line. Either every token is a key of the byte path, or some
    lines carry long, non-ASCII or NUL labels or non-ASCII separators."""
    edge, comment, blank, malformed = draw(st.sampled_from([KEYED_LINES, MIXED_LINES]))
    lines = draw(st.lists(st.one_of(edge, edge, comment, blank), min_size=min_lines, max_size=max(30, min_lines)))
    if bad:
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(malformed))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


def line_readings(text: str) -> list[list[str]]:
    """The lines of ``text`` as a text-mode file yields them, and split at LF only."""
    return [list(io.StringIO(text, newline=None)), text.split("\n")]


def oracle_graph(lines) -> Graph:
    """The graph ``parse_edge_list_oracle`` reads, through the adjacency constructor."""
    labels, edges, loops, dups = parse_edge_list_oracle(lines)
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return Graph(adj, labels=labels, self_loops_dropped=loops, duplicate_edges_dropped=dups)


def same_graph(g: Graph, want: Graph) -> bool:
    return (g.labels == want.labels and np.array_equal(g.indptr, want.indptr)
            and np.array_equal(g.indices, want.indices)
            and g.self_loops_dropped == want.self_loops_dropped
            and g.duplicate_edges_dropped == want.duplicate_edges_dropped)


def keyable(lines: list[str]) -> bool:
    """Whether the byte path must read these lines: a chunk (never empty) of ASCII with no NUL and
    data tokens of at most 8 bytes."""
    text = "".join(lines)
    return (bool(lines) and text.isascii() and "\0" not in text
            and all(len(t) <= 8 for t in edge_list_tokens_oracle(lines)))


@st.composite
def edge_list_file(draw) -> bytes:
    """The bytes of an edge-list file: the lines of ``edge_list_text``, at most
    one of them malformed, with LF, CRLF, lone-CR or mixed line ends, with or
    without a final one, maybe after a byte-order mark, and maybe with a byte
    inserted anywhere that makes the file not UTF-8."""
    edge, comment, blank, malformed = draw(st.sampled_from([KEYED_LINES, MIXED_LINES]))
    lines = draw(st.lists(st.one_of(edge, edge, comment, blank), max_size=30))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(malformed))
    ending = st.sampled_from(["\n", "\r\n", "\r", "\n\r", "\n\n"])
    style = draw(st.sampled_from(["\n", "\r\n", "\r", ending]))
    ends = [draw(style) if isinstance(style, st.SearchStrategy) else style for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\xef\xbb"])) + data[at:]
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + data


def read_or_error(source):
    """The graph ``load_edge_list`` reads, or what names the error it raises."""
    try:
        return load_edge_list(source)
    except EdgeListParseError as e:
        return type(e), e.line_no, str(e)
    except UnicodeDecodeError as e:  # its position counts from the buffer it decoded
        return type(e), e.reason, e.object[e.start : e.end]


def text_keys(lines: list[str]):
    """``_byte_tokens`` on text lines joined by NUL, as ``load_edge_list`` calls
    it: only when no NUL is inside a line."""
    joined = "\0".join(lines)
    return _byte_tokens(joined.encode(), 0) if joined.count("\0") == len(lines) - 1 else None


class TestParsingPaths:
    @settings(max_examples=150, deadline=None)
    @given(edge_list_text())
    @example("a b\r\n# c d\r\n\r\n  a#b\t#a \r\nb a")
    @example("12345678\x1fa#b\n\x1c# 123456789 x\n\x0cb\x0b123456789\nbé\x00 a\x85")
    def test_fast_path_equals_the_line_loop(self, text):
        for lines in line_readings(text):
            assert _line_tokens(lines) == edge_list_tokens_oracle(lines)
            assert same_graph(load_edge_list(iter(lines)), oracle_graph(lines))
            keys = text_keys(lines)
            assert (keys is not None) == keyable(lines)
            if keys is not None:  # a key is its token's bytes, little-endian and NUL-padded
                tokens = [key.to_bytes(8, "little").rstrip(b"\0").decode() for key in keys.tolist()]
                assert tokens == edge_list_tokens_oracle(lines)

    @settings(max_examples=100, deadline=None)
    @given(edge_list_text(bad=True))
    @example("a b\n# x y z\nc")
    def test_malformed_line_raises_the_line_loop_error(self, text):
        for lines in line_readings(text):
            assert text_keys(lines) is None
            with pytest.raises(EdgeListParseError) as got:
                load_edge_list(iter(lines))
            with pytest.raises(EdgeListParseError) as want:
                parse_edge_list_oracle(lines)
            assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(edge_list_text(min_lines=10), edge_list_text(bad=True, min_lines=10)))
    def test_chunks_of_three_lines_read_like_one(self, text):
        # labels keep first-appearance order and errors their line number across
        # chunks; ten lines or more make at least four chunks
        lines = text.split("\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edgelist_module, "_CHUNK_LINES", 3)
            try:
                g = load_edge_list(lines)
            except EdgeListParseError as e:
                with pytest.raises(EdgeListParseError) as want:
                    parse_edge_list_oracle(lines)
                assert (e.line_no, str(e)) == (want.value.line_no, str(want.value))
            else:
                assert same_graph(g, oracle_graph(lines))

    @settings(max_examples=200, deadline=None)
    @given(edge_list_file(), st.sampled_from([1, 2, 3, 7, 16, 1 << 20]))
    @example(b"\xef\xbb\xbfa b\r\nb c\rc\x1fd\n# x y z\n\n\ta\tb", 4)
    @example(b"a b\nb 123456789\nc\xc3\xa9 d\nd\x00 e\ne", 2)  # long, non-ASCII and NUL labels, 1 token
    @example(b"a b\nc d e\nf \xff\n", 3)  # a malformed line in one block, a byte not UTF-8 in the next
    @example(b"a b\r", 1)  # a lone CR at the end of the file
    @example(b"a b\n\x00a b\n", 1)  # a NUL in a block that is otherwise ASCII
    @example(b"\xef\xbb", 1)  # only the start of a byte-order mark: utf-8-sig reads no text
    @example(b"a b\r\nc d\r\n", 1)  # CRLF blocks, each ending at its \n
    @example(b"a b\r\nc d\r\ne \xff\r\n", 1)  # CRLF blocks, then one that is not UTF-8
    @example(b"a b\r# x y z\r\rc d e\rf g\r", 1)  # lone CRs: one block, with a malformed line 4
    @example(b"a b\r\nc d\r\n", 4)  # a \r that ends a read, its \n at the start of the next
    @example(b"a b\rc d e\rf g\r", 5)  # lone CRs that end blocks, then a malformed line 2
    def test_binary_file_reads_like_the_text_file(self, data, block):
        # blocks of a few bytes put block ends inside lines and make files of many blocks
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            with open(path, encoding="utf-8-sig") as fh:
                want = read_or_error(fh)
            mp.setattr(edgelist_module, "_BLOCK_BYTES", block)
            with open(path, "rb") as fh:
                got = read_or_error(fh)
        if isinstance(want, Graph):
            assert isinstance(got, Graph) and same_graph(got, want)
        else:
            assert got == want
        try:  # bytes that are not UTF-8 win over a malformed line anywhere in the file
            data.removeprefix(codecs.BOM_UTF8).decode()
            utf8 = True
        except UnicodeDecodeError:
            utf8 = codecs.BOM_UTF8.startswith(data)  # only the start of a byte-order mark reads as no text
        assert (isinstance(got, tuple) and got[0] is UnicodeDecodeError) == (not utf8)

    def test_binary_file_is_decoded_from_the_first_block_the_tokenizer_turns_down_to_the_next_it_takes(
            self, monkeypatch):
        lines = [b"a b\n", b"b c\n",                  # keyed blocks
                 b"g 123456789\n", b"d\xc3\xa9 a\n",  # a 9-byte and a non-ASCII label: decoded
                 b"e g\n", b"c f\n"]                  # ASCII again: keyed again, g met by its key
        split = []
        monkeypatch.setattr(edgelist_module, "_BLOCK_BYTES", 1)  # one line per block
        monkeypatch.setattr(edgelist_module, "_line_tokens",
                            lambda chunk, **kw: split.append(chunk) or _line_tokens(chunk, **kw))
        g = load_edge_list(io.BytesIO(b"".join(lines)))
        assert split == [["g 123456789"], ["dé a"]]  # only the blocks the tokenizer turns down
        assert g.labels == ("a", "b", "c", "g", "123456789", "dé", "e", "f")
        assert same_graph(g, load_edge_list(io.StringIO(b"".join(lines).decode())))
        split.clear()
        assert same_graph(load_edge_list(io.BytesIO(b"".join(lines[:2]))), load_edge_list(["a b", "b c"]))
        assert split == []

    def test_a_long_label_past_the_first_4_kib_sends_its_block_to_the_line_loop(self, monkeypatch, tmp_path):
        # no '#' in the block and only short labels in its first 4 KiB, so only the
        # width check after the lines are counted turns it down
        lines = [f"a{v} b{v % 7}" for v in range(1000)]
        lines[800] = "a800 123456789"
        data = ("\n".join(lines) + "\n").encode()
        assert data.index(b"123456789") > 4096 and b"#" not in data
        assert _byte_tokens(data, ord("\n")) is None
        assert _byte_tokens(data.replace(b"123456789", b"12345678"), ord("\n")) is not None
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with open(path, encoding="utf-8-sig") as fh:
            want = load_edge_list(fh)
        split = []
        monkeypatch.setattr(edgelist_module, "_line_tokens",
                            lambda chunk, **kw: split.append(chunk) or _line_tokens(chunk, **kw))
        with open(path, "rb") as fh:
            got = load_edge_list(fh)
        assert split == [lines]  # one block, read by the line loop
        assert same_graph(got, want) and "123456789" in got.labels

    @pytest.mark.parametrize("block", [1, 1 << 20])
    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_files_stay_on_the_tokenizer(self, monkeypatch, tmp_path, end, block):
        path = tmp_path / "g.txt"
        path.write_bytes((end.join(["# a comment", "a b", "", "b\tc ", "c a", "d c"]) + end).encode())
        with open(path, encoding="utf-8-sig") as fh:
            want = load_edge_list(fh)
        split = []
        monkeypatch.setattr(edgelist_module, "_BLOCK_BYTES", block)
        monkeypatch.setattr(edgelist_module, "_line_tokens",
                            lambda chunk, **kw: split.append(chunk) or _line_tokens(chunk, **kw))
        with open(path, "rb") as fh:
            got = load_edge_list(fh)
        assert split == []
        assert same_graph(got, want) and got.labels == ("a", "b", "c", "d")

    @pytest.mark.parametrize("block", [7, 4096, 1 << 20])
    def test_bytes_not_utf8_win_over_an_earlier_malformed_line_in_both_reads(
            self, monkeypatch, tmp_path, block):
        # the text read decodes a few KiB ahead of the line it parses, a binary block all of its bytes at once,
        # so only a whole read before the parse error is raised lets both name the same error
        path = tmp_path / "g.txt"
        path.write_bytes(b"a b\nc d e\n" + b"x y\n" * 3000 + b"\xff\n")
        monkeypatch.setattr(edgelist_module, "_CHUNK_LINES", 3)
        monkeypatch.setattr(edgelist_module, "_BLOCK_BYTES", block)
        with open(path, encoding="utf-8-sig") as fh:
            want = read_or_error(fh)
        with open(path, "rb") as fh:
            got = read_or_error(fh)
        assert want == got == (UnicodeDecodeError, "invalid start byte", b"\xff")

    def test_byte_and_str_chunks_share_one_numbering(self, monkeypatch):
        lines = ["c b", "b a", "# a comment with long words",  # byte path
                 "d 123456789", "é abcdefgh", "e a",            # str path: a 9-byte and a non-ASCII label
                 "e\x1cd", "abcdefgh\x0ba", "1 f",              # byte path: a known by key; d, e and the
                                                                # 8-byte label read from their keys, but
                                                                # numbered by the line loop
                 "g\x00 f", "h a", "g b",                       # str path: a NUL inside a label
                 "c 1", "b h"]                                  # byte path: keys met in two byte chunks
        split = []
        monkeypatch.setattr(edgelist_module, "_CHUNK_LINES", 3)
        monkeypatch.setattr(edgelist_module, "_line_tokens",
                            lambda chunk, **kw: split.append(chunk) or _line_tokens(chunk, **kw))
        g = load_edge_list(lines)
        assert split == [lines[3:6], lines[9:12]]  # only the chunks no key can represent
        assert g.labels == ("c", "b", "a", "d", "123456789", "é", "abcdefgh", "e", "1", "f", "g\x00", "h", "g")
        assert same_graph(g, oracle_graph(lines))

    @pytest.mark.parametrize("block, chunk", [(16, 2), (48, 5)])
    def test_each_block_takes_the_packed_sort_where_its_keys_leave_room(self, monkeypatch, block, chunk):
        # labels of 1 to 8 bytes up to '~' (0x7e): 8-byte keys need 63 bits, so a block of a
        # line or two packs its token index above them and a longer block falls back to argsort
        rng = random.Random(block)
        pool = ["".join(rng.choice("09az~!") for _ in range(rng.randint(1, 8))) for _ in range(60)]
        lines = [f"{rng.choice(pool)} {rng.choice(pool)}" if rng.random() > 0.05 else "# x" for _ in range(400)]
        real_of_keys, real_argsort = edgelist_module._Labels.of_keys, np.argsort
        blocks = []  # per block: its keys, whether they leave the index room, whether argsort ranked them

        def of_keys(self, keys):
            if keys.size:  # not a block of comments
                blocks.append([keys, int(keys.max()).bit_length() + (len(keys) - 1).bit_length() <= 64, False])
            return real_of_keys(self, keys)

        def argsort(a, *args, **kwargs):
            if blocks and a is blocks[-1][0]:
                blocks[-1][2] = True
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(edgelist_module._Labels, "of_keys", of_keys)
        monkeypatch.setattr(np, "argsort", argsort)
        monkeypatch.setattr(edgelist_module, "_BLOCK_BYTES", block)
        monkeypatch.setattr(edgelist_module, "_CHUNK_LINES", chunk)
        want = oracle_graph(lines)
        for source in (io.BytesIO("\n".join(lines).encode()), lines):
            blocks.clear()
            assert same_graph(load_edge_list(source), want)
            assert [argsorted for _, _, argsorted in blocks] == [not room for _, room, _ in blocks]
            assert {room for _, room, _ in blocks} == {True, False}


class TestGraphBasics:
    def test_huge_neighbor_id_is_out_of_range(self):
        # ids are range-checked before any int64 conversion, so no OverflowError
        with pytest.raises(ValueError, match=rf"neighbor {2**70} of node 0 is out of range 0\.\.0"):
            Graph([[2**70]])
        with pytest.raises(ValueError, match=r"neighbor -1 of node 1 is out of range 0\.\.1"):
            Graph([[1], [5, 0, -1]])
        with pytest.raises(ValueError, match=rf"edge \(0, {2**70}\) out of range 0\.\.1"):
            Graph.from_edges(2, [(0, 1), (0, 2**70)])

    def test_csr_arrays_are_read_only_sorted_rows(self):
        g = Graph([[2, 1], [0], [0]])
        assert g.indptr.tolist() == [0, 2, 3, 4]
        assert g.indices.tolist() == [1, 2, 0, 0]
        # every builder gives the adjacency constructor's read-only arrays: int64 offsets, int32 ids
        edges = [(3, 1), (1, 0), (0, 3), (1, 3), (2, 2), (4, 5), (6, 5), (5, 4)]  # a loop, a repeat, 2 parts
        text = [f"{a} {b}" for a, b in edges]
        ids = {v: i for i, v in enumerate(dict.fromkeys(v for e in edges for v in e))}  # first appearance
        relabelled = adjacency_of(len(ids), [(ids[a], ids[b]) for a, b in edges])[0]
        built = Graph.from_edges(7, edges)
        gc = giant_core(built)
        conf = configuration_model([3, 2, 2, 1, 0, 2, 2], seed=3)
        builds = {
            "adjacency": (g, [[1, 2], [0], [0]]),
            "text": (load_edge_list(text), relabelled),
            "binary": (load_edge_list(io.BytesIO("\n".join(text).encode())), relabelled),
            "from_edges": (built, adjacency_of(7, edges)[0]),
            "configuration_model": (conf, adjacency_of(7, list(conf.edges()))[0]),
            "induced_subgraph": (induced_subgraph(built, [6, 0, 3, 5]), restrict(built, [0, 3, 5, 6])[0]),
            "giant_core": (gc, restrict(built, giant_group(built))[0]),
            "dense_core": (decompose(gc).dense_core, restrict(gc, oracle_two_core(gc))[0]),
            "n=0 text": (load_edge_list([]), []),
            "n=0 binary": (load_edge_list(io.BytesIO(b"")), []),
            "n=0 from_edges": (Graph.from_edges(0, []), []),
            "n=0 configuration_model": (configuration_model([], seed=1), []),
            "n=1 from_edges": (Graph.from_edges(1, []), [[]]),
            "n=1 giant_core": (giant_core(Graph.from_edges(1, [])), [[]]),
            "loops text": (load_edge_list(["a a", "b b", "a a"]), [[], []]),
            "loops binary": (load_edge_list(io.BytesIO(b"a a\nb b\na a\n")), [[], []]),
            "loops from_edges": (Graph.from_edges(3, [(2, 2), (0, 0)]), [[], [], []]),
        }
        for name, (g, adjacency) in builds.items():
            want = Graph(adjacency)
            for got, expected, dtype in ((g.indptr, want.indptr, np.int64), (g.indices, want.indices, np.int32)):
                assert got.dtype == dtype and got.tolist() == expected.tolist(), name
                with pytest.raises(ValueError, match="read-only"):
                    got[:1] = 7

    def test_adjacency_is_sorted_and_degree_coherent(self):
        g = Graph.from_edges(4, [(0, 3), (0, 1), (0, 2), (2, 3)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degrees() == [3, 1, 2, 2]
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3)]
        assert (g.degree(-1), g.neighbors(-1)) == (2, (0, 2))  # indexed like a sequence
        with pytest.raises(IndexError):
            g.neighbors(4)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_constructor_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph([(1,), (1,)])

    def test_adjacency_constructor_rejects_asymmetry(self):
        # node 0 lists 1 but node 1 does not list 0: edge_count and edges() would disagree
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            Graph([[1], []])
        with pytest.raises(ValueError, match=r"edge \(1, 2\)"):
            Graph([[2], [], [0, 1]])

    def test_adjacency_constructor_rejects_duplicate_neighbors(self):
        with pytest.raises(ValueError, match="neighbor 1 of node 0 is repeated"):
            Graph([[1, 1], [0, 0]])

    def test_equality_ignores_origin_nodes(self):
        g = from_edges([(0, 1), (1, 2)])
        h = induced_subgraph(g, [0, 1, 2])
        assert g == h
        assert h.origin_nodes == (0, 1, 2)


class TestCheckCsr:
    """``util.check_csr``, which the autouse fixture of conftest.py runs on every graph a test
    builds, names each invariant that a small CSR breaks in turn."""

    # the triangle 0-1-2 with node 3 hanging from 2
    INDPTR, INDICES = [0, 2, 4, 7, 8], [1, 2, 0, 2, 0, 1, 3, 2]

    def test_a_graph_passes(self):
        check_csr(np.array(self.INDPTR, dtype=np.int64), np.array(self.INDICES, dtype=np.int32))
        for g in (Graph([]), Graph.from_edges(3, []), load_edge_list(["a b", "b c", "c a", "c d"])):
            check_csr(g.indptr, g.indices)

    @pytest.mark.parametrize("indptr, indices, message", [
        (np.array(INDPTR, dtype=np.int32), INDICES, "indptr is int32 of length 5, not int64 of length n + 1"),
        ([1, 2, 4, 7, 8], INDICES, "indptr runs from 1 to 8, not from 0 to 8"),
        ([0, 2, 4, 7, 7], INDICES, "indptr runs from 0 to 7, not from 0 to 8"),
        ([0, 4, 2, 7, 8], INDICES, "indptr falls: row 1 ends before it starts"),
        (INDPTR, np.array(INDICES, dtype=np.int64), "indices are int64, not int32, for 4 nodes"),
        (INDPTR, [1, 2, 0, 2, 0, 1, 4, 2], "neighbor 4 of node 2 is out of range 0..3"),
        (INDPTR, [1, 2, 0, 2, 0, 1, 3, -1], "neighbor -1 of node 3 is out of range 0..3"),
        (INDPTR, [1, 2, 0, 2, 0, 2, 3, 2], "neighbor 2 of node 2 is its own node"),
        (INDPTR, [1, 2, 0, 2, 1, 0, 3, 2], "neighbor 0 of node 2 does not exceed the neighbor before it"),
        (INDPTR, [1, 2, 0, 2, 0, 0, 3, 2], "neighbor 0 of node 2 does not exceed the neighbor before it"),
        (INDPTR, [1, 2, 0, 2, 0, 1, 3, 1], "arc (3, 1) has no reverse (1, 3)"),
        ([0, 2, 4, 6, 7], [1, 2, 0, 2, 0, 1, 2], "arc (3, 2) has no reverse (2, 3)"),
    ], ids=["indptr-dtype", "indptr-start", "indptr-end", "indptr-falls", "ids-dtype", "id-too-large",
            "id-negative", "self-loop", "row-unsorted", "row-repeat", "asymmetric", "asymmetric-last"])
    def test_each_broken_invariant_is_named(self, indptr, indices, message):
        indptr = indptr if isinstance(indptr, np.ndarray) else np.array(indptr, dtype=np.int64)
        indices = indices if isinstance(indices, np.ndarray) else np.array(indices, dtype=np.int32)
        with pytest.raises(AssertionError) as e:
            check_csr(indptr, indices)
        assert str(e.value) == message

    def test_every_graph_a_test_builds_is_checked(self):
        # the fixture wraps Graph._set, the last step of every way in
        with pytest.raises(AssertionError, match="has no reverse"):
            Graph.__new__(Graph)._set(np.array([0, 1, 1], dtype=np.int64), np.array([1], dtype=np.int32))


class TestBfs:
    def test_distances_match_floyd_warshall(self):
        rng = random.Random(7)
        for n in (100, 150):
            g = random_connected(n, 2 * n, rng)
            oracle = fw_distances(g)
            for src in range(0, n, 17):
                dm = bfs(g, src)
                assert list(dm.dist) == [int(x) for x in oracle[src]]

    def test_unreachable_is_minus_one(self):
        g = load_edge_list(["0 1", "2 3"])
        dm = bfs(g, 0)
        assert dm.dist[2] == UNREACHABLE == -1
        assert dm.reachable_count == 2
        assert dm.eccentricity == 1

    def test_source_out_of_range(self):
        g = from_edges([(0, 1)])
        with pytest.raises(ValueError):
            bfs(g, 5)

    def test_triangle_inequality_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(5):
            n = rng.randrange(10, 41)
            g = random_connected(n, n, rng)
            dist = [bfs(g, s).dist for s in range(n)]
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert dist[u][w] <= dist[u][v] + dist[v][w]


@st.composite
def graphs_with_sources(draw):
    """A graph of up to 40 nodes (isolated ones included, possibly with no edge
    at all or with isolated nodes at the end of the CSR rows) and 1, 63, 64, 65
    or 129 sources, drawn with repetition."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    trailing = draw(st.integers(0, 3))
    g = Graph.from_edges(n + trailing, edges)
    count = draw(st.sampled_from([1, 63, 64, 65, 129]))
    sources = draw(st.lists(st.integers(0, n + trailing - 1), min_size=count, max_size=count))
    return g, sources


def oracle_rows(g: Graph) -> list[list[int]]:
    return [[UNREACHABLE if d == INF else int(d) for d in row] for row in fw_distances(g)]


class TestDistanceKernel:
    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sources())
    @example((Graph([[1], [0], []]), [2, 0, 2, 2]))  # trailing isolated node, repeats
    @example((Graph([[], [], []]), [1] * 65))  # no edges; a repeated source in two blocks
    def test_blocks_match_floyd_warshall(self, case):
        g, sources = case
        blocks = list(_distance_blocks(g, sources))
        assert [len(b) for b in blocks] == [min(64, len(sources) - i) for i in range(0, len(sources), 64)]
        assert all(b.dtype == np.int32 for b in blocks)
        oracle = oracle_rows(g)
        assert np.concatenate(blocks).tolist() == [oracle[s] for s in sources]

    @pytest.mark.parametrize("shape", ["path", "cycle"])
    @pytest.mark.parametrize("count", [1, 64, 65])
    def test_levels_past_eight_planes_match_closed_forms(self, shape, count):
        # a 300-node path (299 hops) or a 600-node cycle (300 hops), so the
        # levels take 9 bit planes, then a separate edge that the rest cannot reach
        k = 300 if shape == "path" else 600
        ring = [(i, (i + 1) % k) for i in range(k if shape == "cycle" else k - 1)]
        g = Graph.from_edges(k + 2, ring + [(k, k + 1)])
        node = np.arange(k + 2)
        gap = np.abs(node[:, None] - node)
        if shape == "cycle":
            gap = np.minimum(gap, k - gap)
        same_part = (node[:, None] < k) == (node < k)
        sources = ([0, k + 1, k // 2, k + 1, k - 1] * 13)[:count]
        blocks = list(_distance_blocks(g, sources))
        assert [b.shape for b in blocks] == [(min(64, count - i), k + 2) for i in range(0, count, 64)]
        assert all(b.dtype == np.int32 and b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.where(same_part, gap, UNREACHABLE)[sources])

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_sources())
    def test_bfs_matches_floyd_warshall(self, case):
        g, _ = case
        oracle = oracle_rows(g)
        assert [list(bfs(g, s).dist) for s in range(g.node_count)] == oracle


class TestComponents:
    def test_partition_matches_union_find(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(2, 80)
            g = random_graph(n, rng.randrange(1, 2 * n), rng)
            lab = components(g)
            oracle = uf_components(g)
            assert lab.count == len(oracle)
            assert sorted(lab.sizes) == sorted(len(c) for c in oracle)
            for group in oracle:
                ids = {lab.component_id[v] for v in group}
                assert len(ids) == 1

    def test_giant_index_prefers_largest_then_first(self):
        g = load_edge_list(["0 1", "2 3", "3 4"])
        lab = components(g)
        assert lab.sizes == (2, 3)
        assert lab.giant_index == 1
        tie = load_edge_list(["0 1", "2 3"])
        assert components(tie).giant_index == 0


class TestConnectedPrecondition:
    def test_disconnected_input_fails_before_any_traversal(self, monkeypatch):
        def no_traversal(*args):
            raise AssertionError("a traversal ran before the connectivity check")

        # the exact modes traverse the 2-core, the sampled modes fold the kernel's levels, and the
        # embeddings take its distance blocks
        for module in (structure_module, stats_module):
            for name in ("_peel", "_core_blocks", "_level_blocks"):
                monkeypatch.setattr(module, name, no_traversal)
        monkeypatch.setattr(embedding_module, "_distance_blocks", no_traversal)
        g = from_edges([(0, 1), (2, 3), (4, 5)])
        cases = [
            (structure_module.decompose, "decompose one component at a time"),
            (structure_module.depth_map, "see depth_map_per_component"),
            (lambda g: structure_module.depth_map(g, "sampled", anchors=2), "see depth_map_per_component"),
            (stats_module.path_length_report, "reduce to one component first"),
            (lambda g: stats_module.path_length_report(g, "sampled", sources=2), "reduce to one component first"),
            (embed_full, "embed one component at a time"),
            (lambda g: embed(g, [5, 0]), "embed one component at a time"),
            (lambda g: embedding_distortion(g, [0]), "embed one component at a time"),
        ]
        for analysis, hint in cases:
            with pytest.raises(ValueError) as e:
                analysis(g)
            assert str(e.value) == f"graph is disconnected (3 components); {hint}"


EMPTY = Graph([])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
NAN, INF = float("nan"), float("inf")


class TestGuardMessages:
    """Each argument guard raises ValueError with its exact message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: structure_module.decompose(EMPTY), "cannot decompose an empty graph"),
        (lambda: structure_module.depth_map(EMPTY), "depth of an empty graph is undefined"),
        (lambda: structure_module.personality_report(EMPTY), "personality of an empty graph is undefined"),
        (lambda: stats_module.senior_stats(EMPTY), "senior stats of an empty graph are undefined"),
        (lambda: embed(EMPTY, [0]), "cannot embed an empty graph"),
        (lambda: embed_full(EMPTY), "cannot embed an empty graph"),
        (lambda: embed_full(EMPTY, list), "cannot embed an empty graph"),
        (lambda: stats_module.path_length_report(EMPTY), "path lengths need at least 2 nodes"),
        (lambda: stats_module.path_length_report(Graph([[]])), "path lengths need at least 2 nodes"),
        (lambda: Graph.from_edges(3, [(0, 1), (0, 1, 2)]), "edges must be (u, v) pairs"),
        (lambda: Graph([[1], [0]], labels=("a",)), "labels length does not match node count"),
        # node ids are taken by operator.index: a float is not truncated, a string not parsed
        (lambda: Graph.from_edges(3, [(0.5, 1.7)]), "node id 0.5 is not an integer"),
        (lambda: Graph.from_edges(3, [(0, 1), ("0", "1")]), "node id '0' is not an integer"),
        (lambda: Graph([[1.5], [0]]), "node id 1.5 is not an integer"),
        (lambda: Graph([["1"], [0]]), "node id '1' is not an integer"),
        (lambda: induced_subgraph(P3, [2, 0.5]), "node id 0.5 is not an integer"),
        (lambda: embed(P3, [1.9]), "node id 1.9 is not an integer"),
        (lambda: embed(P3, ["2"]), "node id '2' is not an integer"),
        (lambda: embedding_distortion(P3, [0, 2.5]), "node id 2.5 is not an integer"),
        (lambda: bfs(P3, 1.5), "node id 1.5 is not an integer"),
        (lambda: simulate_crawl(P3, start=1.5), "node id 1.5 is not an integer"),
        # NaN fails every guard, as the CLI's flag types already make it
        (lambda: structure_module.personality_report(P3, tau=NAN), "tau must be >= 0"),
        (lambda: stats_module.senior_stats(P3, threshold=NAN), "threshold must be >= 0"),
        (lambda: structure_module.depth_density_profile(P3, structure_module.depth_map(P3), bin_width=NAN),
         "bin_width must be finite and > 0, got nan"),
        (lambda: structure_module.depth_density_profile(P3, structure_module.depth_map(P3), bin_width=INF),
         "bin_width must be finite and > 0, got inf"),
        (lambda: structure_module.depth_density_profile(P3, structure_module.depth_map(P3), bin_width=0),
         "bin_width must be finite and > 0, got 0"),
        (lambda: solve_acquisition_ode(0, NAN, -0.5, 0.5, 50), "d0 must be > 0"),
        (lambda: solve_acquisition_ode(NAN, 100, -0.5, 0.5, 50),
         "the implied size P + D + (D' + 1)*D of the start is not finite"),
        (lambda: solve_acquisition_ode(0, 100, -0.5, NAN, 50), "step must be > 0"),
        (lambda: solve_acquisition_ode(0, 100, -0.5, 0.5, NAN), "p_max must be >= p0"),
    ], ids=["decompose", "depth_map", "personality_report", "senior_stats", "embed", "embed_full",
            "embed_full-consume", "path_length_report-0", "path_length_report-1", "from_edges-pairs",
            "labels-length", "from_edges-float", "from_edges-str", "adjacency-float", "adjacency-str",
            "induced_subgraph-float", "embed-float", "embed-str", "embedding_distortion-float", "bfs-float",
            "simulate_crawl-float", "personality_report-nan", "senior_stats-nan", "profile-nan",
            "profile-inf", "profile-0", "ode-d0-nan", "ode-p0-nan", "ode-step-nan", "ode-pmax-nan"])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message

    def test_numpy_integers_and_bools_are_node_ids(self):
        want = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert Graph.from_edges(3, [(np.int32(0), True), (True, np.uint8(2))]) == want
        assert Graph([[True], [np.int64(0), 2], [np.int16(1)]]) == want
        assert induced_subgraph(want, [False, True, np.intp(1)]).origin_nodes == (0, 1)
        assert bfs(want, np.int32(2)).source == 2 and simulate_crawl(want, start=np.uint8(1)).start == 1
        assert embed(want, [np.int16(2), True]).references == (2, 1)


class TestSubgraphs:
    def test_induced_subgraph_restricts_edges_and_keeps_labels(self):
        g = load_edge_list(["a b", "b c", "c d", "d a", "a c"])
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.labels == ("a", "b", "c")
        assert sub.origin_nodes == (0, 1, 2)
        assert sorted(sub.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_giant_core_is_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 60)
            g = random_graph(n, rng.randrange(1, n + 10), rng)
            core = giant_core(g)
            assert components(core).count == 1
            assert giant_core(core) == core

    def test_giant_core_of_a_connected_graph_shares_its_arrays(self):
        g = load_edge_list(["b a", "a c", "c b", "c d", "d d", "a b"])
        core = giant_core(g)
        assert core.indptr is g.indptr and core.indices is g.indices
        assert core.labels == g.labels and core.origin_nodes == (0, 1, 2, 3)
        assert core.self_loops_dropped == core.duplicate_edges_dropped == 0

    def test_giant_core_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            giant_core(Graph([]))


@st.composite
def small_graphs(draw):
    """Up to 30 nodes with random edges (loops and repeats dropped), 0-3
    trailing isolated nodes, sometimes labelled; possibly empty."""
    n = draw(st.integers(0, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)) if n else []
    n += draw(st.integers(0, 3))
    labels = tuple(f"v{i}" for i in range(n)) if draw(st.booleans()) else None
    return Graph.from_edges(n, edges, labels=labels)


def giant_group(g: Graph) -> set[int]:
    """The largest union-find component, ties to the one holding the smallest node."""
    return max(uf_components(g), key=lambda group: (len(group), -min(group)))


def restricted_graph(g: Graph, nodes) -> Graph:
    adj, keep = restrict(g, nodes)
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return Graph(adj, labels=labels, origin_nodes=keep)


def assert_csr_contract(g: Graph) -> None:
    """``Graph.__eq__`` compares values only: the CSR arrays must also be read-only, ``indptr``
    int64 and ``indices`` int32 up to ``_ID32_NODES`` nodes, int64 beyond."""
    assert g.indptr.dtype == np.int64 and g.indices.dtype == graph_module._id_dtype(g.node_count)
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


TIES = Graph.from_edges(8, [(4, 5), (5, 6), (1, 2), (2, 3)])  # isolated 0 and 7, equal paths


class TestComponentsOnCsr:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    @example(Graph([]))
    @example(TIES)
    @example(Graph.from_edges(4, []))
    def test_components_match_union_find(self, g):
        lab = components(g)
        groups = uf_components(g)
        assert lab.count == len(groups)
        for group in groups:
            assert len({lab.component_id[v] for v in group}) == 1
        # ids in order of first appearance, sizes per id
        assert list(dict.fromkeys(lab.component_id)) == list(range(lab.count))
        assert list(lab.sizes) == [lab.component_id.count(c) for c in range(lab.count)]
        if g.node_count:
            assert lab.giant_index == lab.component_id[min(giant_group(g))]
        else:
            assert lab.giant_index == -1

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    @example(TIES)
    @example(Graph([]))  # no node to keep
    @example(Graph.from_edges(5, [(0, 1), (1, 3), (3, 4), (4, 0)], labels=tuple("abcde")))  # all nodes but 2
    @example(Graph.from_edges(3, []))  # nodes but no edges: the giant is node 0
    def test_giant_core_is_the_plain_restriction(self, g):
        if g.node_count == 0:
            with pytest.raises(ValueError):
                giant_core(g)
            return
        core = giant_core(g)
        want = restricted_graph(g, giant_group(g))
        assert core == want
        assert core.origin_nodes == want.origin_nodes
        assert_csr_contract(core)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs().flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.integers(0, g.node_count - 1), max_size=40) if g.node_count else st.just([]))))
    @example((Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), []))  # an empty keep
    @example((Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], labels=tuple("abcde")),
              [0, 1, 3, 4]))  # all nodes but one
    @example((Graph.from_edges(4, []), [3, 1]))  # nodes but no edges
    def test_induced_subgraph_is_the_plain_restriction(self, case):
        g, nodes = case
        sub = induced_subgraph(g, nodes)
        want = restricted_graph(g, nodes)
        assert sub == want
        assert sub.origin_nodes == want.origin_nodes
        assert_csr_contract(sub)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 2, 3]))
    @example(Graph.from_edges(9, [(4, v) for v in range(9) if v != 4]), 2)  # a hub row of 8 arcs, budget 2
    def test_edge_slices_are_the_sorted_edges(self, g, budget):
        # a slice per range of rows of at most the arc budget, a longer row alone, joined to the plain edge list
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_ARC_BUDGET", budget)
            slices, ranges = list(g._edge_slices()), list(_row_ranges(g))
        assert len(slices) == len(ranges)
        for (lo, hi), (a, b, rows, _) in zip(slices, ranges):
            # the slice holds the u < v arcs of its range's rows
            want = [(u, w) for u in rows.tolist() for w in g.neighbors(u) if u < w]
            assert list(zip(lo.tolist(), hi.tolist())) == want
            assert b - a <= budget or len(rows) == 1
        want = [(u, w) for u in range(g.node_count) for w in g.neighbors(u) if u < w]
        pairs = [(u, w) for lo, hi in slices for u, w in zip(lo.tolist(), hi.tolist())]
        assert pairs == want == list(g.edges())

    @staticmethod
    def relabeled(n: int, edges, seed: int) -> Graph:
        perm = np.random.default_rng(seed).permutation(n).tolist()
        return Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])

    @pytest.mark.parametrize("case", ["long path", "long cycle", "isolated nodes between linked ones",
                                      "smallest neighbour above the node"])
    def test_row_hooking_matches_union_find(self, case):
        # round one hooks each node to the head of its sorted row; later rounds take each row's
        # smallest root, so long relabeled chains need many rounds
        n = 3000
        if case == "long path":
            g = self.relabeled(n, [(i, i + 1) for i in range(n - 1)], 1)
        elif case == "long cycle":
            g = self.relabeled(n, [(i, (i + 1) % n) for i in range(n)], 2)
        elif case == "isolated nodes between linked ones":  # every third id isolated, paths of 2 to 9 linked ones
            rng = random.Random(3)
            linked = [v for v in range(n) if v % 3]
            rng.shuffle(linked)
            edges, at = [], 0
            while at < len(linked) - 1:
                size = rng.randint(2, 9)
                edges += list(zip(linked[at : at + size - 1], linked[at + 1 : at + size]))
                at += size
            g = Graph.from_edges(n, edges)
        else:  # 3 and 1 hook nothing in round one: their smallest neighbour, 7, is larger
            g = Graph.from_edges(9, [(3, 7), (7, 1), (8, 5), (5, 6)])
            assert [g.neighbors(v)[0] for v in (1, 3)] == [7, 7]
        lab = components(g)
        assert (lab.component_id, lab.sizes) == exact_labeling(g)


def exact_labeling(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Component id per node and component sizes from union-find, the
    components numbered in the order of their smallest nodes."""
    groups = sorted(uf_components(g), key=min)
    cid = [0] * g.node_count
    for i, group in enumerate(groups):
        for v in group:
            cid[v] = i
    return tuple(cid), tuple(map(len, groups))


def path_through(order: list[int]) -> Graph:
    return Graph.from_edges(len(order), list(zip(order[:-1], order[1:])))


class TestHookingEdgeCases:
    """Inputs where the hooking rounds of ``_component_ids`` are long, numerous or tied."""

    def check(self, g: Graph) -> None:
        lab = components(g)
        assert (lab.component_id, lab.sizes) == exact_labeling(g)
        assert lab.giant_index == lab.sizes.index(max(lab.sizes))

    def test_long_paths(self):
        n = 3000
        self.check(path_through(list(range(n - 1, -1, -1))))  # descending labels
        self.check(path_through(sorted(range(4096), key=lambda v: f"{v:012b}"[::-1])))  # bit-reversed labels
        self.check(path_through(np.random.default_rng(5).permutation(n).tolist()))
        # the same path read from text: labels descend, ids follow first appearance
        g = load_edge_list(f"{v} {v - 1}" for v in range(n - 1, 0, -1))
        assert g.labels[0] == str(n - 1)
        self.check(g)

    def test_many_small_components_between_isolated_nodes(self):
        rng = np.random.default_rng(11)
        perm = rng.permutation(4000).tolist()  # scatters the components over the ids
        edges, at = [], 0
        while at + 5 <= len(perm):
            size = int(rng.integers(1, 5))  # 1 to 4 nodes, then an isolated node
            edges += [(perm[at + i], perm[at + i + 1]) for i in range(size - 1)]
            if size > 2:  # close a cycle
                edges.append((perm[at], perm[at + size - 1]))
            at += size + 1
        g = Graph.from_edges(len(perm), edges)
        self.check(g)
        assert components(g).count > 1000

    def test_size_tie_for_the_giant(self):
        # a path on 9, 2, 7 and a triangle on 8, 3, 5: the tie goes to node 2's component
        g = Graph.from_edges(10, [(9, 2), (2, 7), (8, 3), (3, 5), (5, 8), (0, 6)])
        self.check(g)
        lab = components(g)
        assert lab.sizes == (2, 1, 3, 3, 1) and lab.giant_index == 2
        assert giant_core(g).origin_nodes == (2, 7, 9)


HUB = Graph.from_edges(10, [(4, v) for v in range(9) if v != 4])  # a row of 8 arcs, then an isolated node


class TestRowFold:
    """Per-row folds over ranges of rows of at most ``_ARC_BUDGET`` arcs, a longer row in a range of
    its own. Cut to 1, 2 or 3 arcs, the budget splits a graph into many ranges and hub rows exceed it;
    every fold must equal its unsplit result and the plain oracle."""

    @staticmethod
    def split(budget: int, fold):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_ARC_BUDGET", budget)
            return fold()

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 2, 3]))
    @example(Graph([]), 1)
    @example(Graph.from_edges(4, []), 2)
    @example(HUB, 3)
    def test_ranges_hold_each_arc_once_within_the_budget(self, g, budget):
        ranges = self.split(budget, lambda: list(_row_ranges(g)))
        indptr = g.indptr
        # each range starts where the last one ended, the first at arc 0, and the last ends with indices
        assert [lo for lo, *_ in ranges] + [len(g.indices)] == [0] + [hi for _, hi, *_ in ranges]
        rows = [v for *_, range_rows, _ in ranges for v in range_rows.tolist()]
        assert rows == np.flatnonzero(np.diff(indptr)).tolist()  # every row with arcs, in order
        for lo, hi, range_rows, starts in ranges:
            assert hi - lo <= budget or len(range_rows) == 1
            assert starts.tolist() == (indptr[range_rows] - lo).tolist()

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
    @example(Graph([]), 1, 0)
    @example(Graph.from_edges(4, []), 2, 0)
    @example(HUB, 3, 0)
    def test_row_sums_match_the_plain_sums(self, g, budget, seed):
        values = np.random.default_rng(seed).integers(-50, 50, size=g.node_count)
        for v in (values, values > 0):  # int64, and a mask that sums as a count
            want = [sum(int(v[w]) for w in g.neighbors(u)) for u in range(g.node_count)]
            sums = self.split(budget, lambda: _row_sums(g, v))
            assert sums.dtype == np.int64
            assert sums.tolist() == _row_sums(g, v).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 2, 3]))
    @example(Graph([]), 1)
    @example(Graph.from_edges(4, []), 2)
    @example(HUB, 3)
    @example(TIES, 1)
    def test_component_ids_match_union_find(self, g, budget):
        cid, sizes = self.split(budget, lambda: _component_ids(g))
        plain_cid, plain_sizes = _component_ids(g)
        assert (cid.tolist(), sizes.tolist()) == (plain_cid.tolist(), plain_sizes.tolist())
        assert (tuple(cid.tolist()), tuple(sizes.tolist())) == exact_labeling(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sources(), st.sampled_from([1, 2, 3]))
    @example((HUB, [4, 9, 0]), 1)
    @example((HUB, list(range(10))), 3)
    @example((Graph.from_edges(3, []), [2, 0]), 1)
    def test_distance_blocks_match_floyd_warshall(self, case, budget):
        g, sources = case
        blocks = self.split(budget, lambda: list(_distance_blocks(g, sources)))
        assert np.array_equal(np.concatenate(blocks), np.concatenate(list(_distance_blocks(g, sources))))
        oracle = oracle_rows(g)
        assert np.concatenate(blocks).tolist() == [oracle[s] for s in sources]

    def test_empty_graph(self):
        assert list(_row_ranges(EMPTY)) == [] and list(_distance_blocks(EMPTY, [])) == []
        assert _row_sums(EMPTY, np.zeros(0, dtype=bool)).tolist() == []
        assert [a.tolist() for a in _component_ids(EMPTY)] == [[], []]


@pytest.mark.unchecked_csr  # the traced figures are the program's alone
class TestTransientMemory:
    """Traced bytes that the build, the giant core and the CLI's reduce path
    allocate beyond their input."""

    @staticmethod
    def traced_peak(build) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_from_pairs_holds_one_key_array_at_a_time(self):
        # the keys and the int32 ids of indices are 16 bytes per edge, about 19.1 with the per-node
        # arrays and the pieces; the 2m int64 arc array beside the unique keys took it to 24.1
        m = 40_000
        ends = np.random.default_rng(2).integers(0, 1000, size=2 * m, dtype=np.int64)  # repeats and loops too
        peak = self.traced_peak(lambda: graph_module._from_pairs(1000, [ends]))
        assert peak <= 21 * m

    @staticmethod
    def heavy_tailed() -> Graph:
        spec = DoubleParetoSpec(size=3000, alpha_left=1, alpha_right=3, break_degree=50, min_degree=10,
                                seed=0)  # connected: the giant core is the whole graph
        return configuration_model(generate_double_pareto_degrees(spec), seed=0)

    def test_giant_core_per_edge(self):
        g = self.heavy_tailed()
        peak = self.traced_peak(lambda: giant_core(g))
        assert peak <= 24 * g.edge_count

    def test_giant_core_of_a_disconnected_graph_per_edge(self):
        spec = DoubleParetoSpec(size=5000, alpha_left=1.5, alpha_right=2.5, break_degree=10, min_degree=1,
                                seed=7)  # 122 components, a 4 750-node giant
        g = configuration_model(generate_double_pareto_degrees(spec), seed=7)
        assert len(components(g).sizes) > 1
        # _component_ids alone peaks at about 38 bytes per edge and the cut from the rows at about
        # 39, the giant core at about 46 with the component ids it holds; building and re-sorting the
        # subgraph's edge keys took it to 58.5
        peak = self.traced_peak(lambda: giant_core(g))
        assert peak <= 50 * g.edge_count

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_binary_parse_per_edge_with_any_line_end(self, tmp_path, monkeypatch, end):
        # blocks of 16 KiB make the file about 34 blocks: lone-CR line ends must bound them as \n does
        g = self.heavy_tailed()
        path = tmp_path / "g.txt"
        path.write_bytes("".join(f"{u} {v}{end}" for u, v in g.edges()).encode())
        monkeypatch.setattr(edgelist_module, "_BLOCK_BYTES", 1 << 14)
        with open(path, "rb") as fh:
            peak = self.traced_peak(lambda: load_edge_list(fh))
        assert peak <= 28 * g.edge_count  # about 26, where int64 token positions and arcs took it to 31.4

    @pytest.fixture(scope="class")
    def heavy20k(self, tmp_path_factory) -> tuple[str, str]:
        """The benchmark's heavy20k input, 417 025 edges in about 4.5 MB, five parse blocks, and a
        400-node graph of the same recipe, which a job reads first so that its imports and caches
        stay out of the traced run."""
        paths = []
        for n in (20_000, 400):
            out = tmp_path_factory.mktemp(f"heavy{n}")
            assert main(["generate", "--double-pareto", f"n={n}", "alpha-left=1", "alpha-right=3", "break=50",
                         "min=10", "--seed", "42", "--out", str(out)]) == 0
            paths.append(str(out / "edges.txt"))
        return paths[0], paths[1]

    def test_byte_tokens_per_token(self, heavy20k):
        # one 1 MiB block, 207 538 tokens: about 20.2 bytes per token, where int64 token positions, a
        # search of them per line and a width table took it to 53
        with open(heavy20k[0], "rb") as fh:
            block = next(edgelist_module._whole_lines(fh))
        tokens = len(_byte_tokens(block, ord("\n")))
        assert tokens > 200_000
        assert self.traced_peak(lambda: _byte_tokens(block, ord("\n"))) <= 23 * tokens

    # bytes per edge past the loaded graph, measured: 3.7 (bare stats), 6.4 (depth), 6.6 (stats), 8.1
    # (each crawl), 13.9 (embed --refs), 15.1 (personality), 17.8 (decompose); an arc-length int64 array
    # is 16. depth and personality wrote their one-row-per-node reports as one string: 7.5 and 17.8
    @pytest.mark.parametrize("argv, bound", [
        (["stats", "--giant", "--degrees", "--fit", "--paths", "sampled:64", "--seniors", "50"], 9),
        (["stats"], 6),
        (["decompose", "--giant"], 20),
        (["depth", "--giant", "--mode", "sampled:64", "--profile-bin", "0.25"], 9),
        (["personality", "--giant"], 18),
        (["embed", "--refs", ",".join(map(str, range(16)))], 16),
        (["crawl-sim", "--policy", "fifo", "--stride", "1"], 11),
        (["crawl-sim", "--policy", "random", "--stride", "1"], 11),
    ], ids=["stats", "bare-stats", "decompose", "depth", "personality", "embed-refs", "crawl-fifo",
            "crawl-random"])
    def test_job_per_edge(self, heavy20k, tmp_path, monkeypatch, argv, bound):
        """A graph subcommand through main() on the heavy20k input: a spy on load_edge_list takes the
        load's traced peak and the loaded size, and resets the peak, so the load and the rest of the
        run above the loaded graph are bounded apart. The load is about 27.9 bytes per edge for every
        job: the parse's ids and labels with one block's temporaries, then the build's 16 and the
        labels; the ids of the parse, int64 token positions and a 2m int64 arc array took it to 41.1."""
        real, load = graph_module.load_edge_list, {}

        def spy(source):
            g = real(source)
            now, peak = tracemalloc.get_traced_memory()
            load.update(peak=peak, size=now, edges=g.edge_count)
            tracemalloc.reset_peak()
            return g

        big, small = heavy20k
        assert main([argv[0], "--graph", small, *argv[1:], "--out", str(tmp_path / "warm")]) == 0
        monkeypatch.setattr(graph_module, "load_edge_list", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main([argv[0], "--graph", big, *argv[1:], "--out", str(tmp_path / "job")]) == 0
            rest = tracemalloc.get_traced_memory()[1] - load["size"]
        finally:
            tracemalloc.stop()
        assert load["edges"] == 417_025
        assert load["peak"] - before <= 30 * load["edges"]
        assert rest <= bound * load["edges"]

    @pytest.fixture
    def small_budget(self, monkeypatch):
        # with 256 arcs a range the row folds' own gathers are negligible, so any array as long as
        # indices, which the 3 000-node graph's 118 146 arcs make 945 KB in int64, shows in full
        monkeypatch.setattr(graph_module, "_ARC_BUDGET", 1 << 8)

    # bytes per edge: the arc-length temporaries of the row sums, the personality pool, the hooking
    # gather and the blocks counted whole took these to 34.1, 34.5, 36.1, 39.5 and 18.5; the row
    # folds and the counts by row take them to 0.7, 14.1, 7.9, 22.6 and 5.6, mostly per-node arrays.
    # Sampled paths and depth fold the BFS levels with no block of distances: 7.5 and 7.9, where a
    # block and its build took them to 22.6 and 22.2, most of the rest the ranges of 256 arcs
    @pytest.mark.parametrize("analysis, bound", [
        (lambda g: stats_module.senior_stats(g, 25), 4),
        (structure_module.personality_report, 20),
        (decompose, 16),
        (lambda g: stats_module.path_length_report(g, "sampled", sources=64), 10),
        (lambda g: structure_module.depth_map(g, "sampled", anchors=64), 10),
        (_component_ids, 10),
    ], ids=["senior_stats", "personality_report", "decompose", "path_length_report-sampled", "depth_map-sampled",
            "_component_ids"])
    def test_analysis_per_edge(self, small_budget, analysis, bound):
        g = self.heavy_tailed()
        analysis(g)  # imports and caches stay out of the traced run
        peak = self.traced_peak(lambda: analysis(g))
        assert peak <= bound * g.edge_count

    def test_configuration_model_per_edge(self):
        # int32 stubs, then the edge keys and the int32 ids, written straight into their rows: about
        # 28.1 bytes per edge, where a 2m int64 arc array took it to 33.4 and int64 stubs to 43.1
        degrees = generate_double_pareto_degrees(DoubleParetoSpec(size=3000, alpha_left=1, alpha_right=3,
                                                                  break_degree=50, min_degree=10, seed=0))
        edges = configuration_model(degrees, seed=0).edge_count  # imports and caches stay out of the trace
        peak = self.traced_peak(lambda: configuration_model(degrees, seed=0))
        assert peak <= 30 * edges

    @pytest.mark.parametrize("mode", ["sampled", "exact"])
    def test_path_lengths_count_blocks_by_row(self, small_budget, monkeypatch, mode):
        # the kernel's levels and blocks are made before the trace, so the figure is the counting alone:
        # about 5.8 bytes per edge in both modes, the popcounts of the sampled levels and the exact
        # blocks counted by row, where bincount's intp copy of each whole block took it to 26.5 and 28.9
        g = self.heavy_tailed()
        if mode == "sampled":
            sources = graph_module._sources(g.node_count, mode, 64, 0, "sources")
            levels = [(rows, list(block)) for rows, block in graph_module._level_blocks(g, sources)]
            monkeypatch.setattr(stats_module, "_level_blocks",
                                lambda g, sources: ((rows, iter(block)) for rows, block in levels))
        else:
            blocks = list(graph_module._core_blocks(g, graph_module._peel(g)))
            monkeypatch.setattr(stats_module, "_core_blocks", lambda g, forest: iter(blocks))
        report = stats_module.path_length_report(g, mode, sources=64)
        peak = self.traced_peak(lambda: stats_module.path_length_report(g, mode, sources=64))
        assert peak <= 8 * g.edge_count
        monkeypatch.undo()
        assert stats_module.path_length_report(g, mode, sources=64) == report

    def test_distance_block_holds_two_blocks(self):
        # a block of 64 int32 rows is 256 bytes per node
        g = self.heavy_tailed()
        peak = self.traced_peak(lambda: next(_distance_blocks(g, range(64))))
        assert peak <= 2 * 256 * g.node_count

    @staticmethod
    def reduce_core() -> Graph:
        """The 603-node core that the benchmark's reduce workload draws; diameter below 128."""
        spec = DoubleParetoSpec(size=630, alpha_left=1.5, alpha_right=2.5, break_degree=10, min_degree=1,
                                seed=7)
        return giant_core(configuration_model(generate_double_pareto_degrees(spec), seed=7))

    def test_cli_reduce_holds_no_int32_table(self, tmp_path):
        # the CLI fills a one-byte table from the kernel blocks and peaks at about 8.6
        # bytes a cell at tolerance 2, where building the int32 matrix first took it to 12.6
        g = self.reduce_core()
        src = tmp_path / "core.txt"
        src.write_text("".join(f"{g.label_of(u)} {g.label_of(v)}\n" for u, v in g.edges()))
        argv = ["reduce", "--graph", str(src), "--tolerance", "2", "--out", str(tmp_path / "r")]
        assert main(argv) == 0  # imports and caches stay out of the traced run
        peak = self.traced_peak(lambda: main(argv))
        assert peak <= 11 * g.node_count ** 2

    def test_full_embedding_is_a_one_byte_table(self):
        # the blocks go straight into a one-byte table: about 2.1 bytes a cell with one
        # int32 block, where an int32 table took 5.1
        g = self.reduce_core()
        embed_full(g)  # imports and caches stay out of the traced run
        peak = self.traced_peak(lambda: embed_full(g))
        assert peak <= 3 * g.node_count ** 2

    def test_library_reduce_reads_the_one_byte_table(self):
        # about 7.6 bytes a cell at tolerance 2, where narrowing an int32 table by copy took 11.6
        g = self.reduce_core()
        run = lambda: reduce_references(build_cover_matrix(embed_full(g), 2))  # noqa: E731
        run()  # imports and caches stay out of the traced run
        peak = self.traced_peak(run)
        assert peak <= 9 * g.node_count ** 2

    @pytest.mark.parametrize("k", [16, None], ids=["16-references", "all-references"])
    def test_distortion_holds_no_int32_table(self, k):
        # a one-byte table, its reference columns and one buffer of their shape: about
        # 3 bytes a cell with every reference, where the int32 matrix and the pair
        # arrays took 7.4
        g = self.reduce_core()
        refs = range(g.node_count if k is None else k)
        embedding_distortion(g, refs)  # imports and caches stay out of the traced run
        peak = self.traced_peak(lambda: embedding_distortion(g, refs))
        assert peak <= 4 * g.node_count ** 2


def adjacency_of(n: int, edges) -> tuple[list[list[int]], int, int]:
    """Neighbour lists (in reverse order, so the constructor must sort them),
    self-loop count and duplicate count of raw edges, by plain sets."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    loops = dups = 0
    for a, b in edges:
        if a == b:
            loops += 1
        elif b in nbrs[a]:
            dups += 1
        else:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return [sorted(row, reverse=True) for row in nbrs], loops, dups


RAW_EDGES = st.integers(1, 25).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)))


class TestOneBuilder:
    @settings(max_examples=100, deadline=None)
    @given(RAW_EDGES)
    def test_from_edges_equals_the_adjacency_constructor(self, case):
        n, edges = case
        adj, loops, dups = adjacency_of(n, edges)
        g = Graph.from_edges(n, iter(edges))
        assert g == Graph(adj)
        assert (g.self_loops_dropped, g.duplicate_edges_dropped) == (loops, dups)

    @settings(max_examples=100, deadline=None)
    @given(RAW_EDGES)
    def test_load_edge_list_equals_the_adjacency_constructor(self, case):
        _, edges = case
        order = list(dict.fromkeys(v for e in edges for v in e))  # first-appearance ids
        new = {v: i for i, v in enumerate(order)}
        adj, loops, dups = adjacency_of(len(order), [(new[a], new[b]) for a, b in edges])
        g = load_edge_list(f"{a} {b}" for a, b in edges)
        assert g == Graph(adj, labels=tuple(map(str, order)))
        assert (g.self_loops_dropped, g.duplicate_edges_dropped) == (loops, dups)

    @settings(max_examples=100, deadline=None)
    @given(RAW_EDGES, st.integers(1, 4))
    @example((3, [(0, 1)] * 7 + [(1, 0)] * 4 + [(2, 2)] * 5 + [(1, 2)]), 2)  # runs of repeats and loops
    @example((6, [(v, v) for v in range(6)] * 3 + [(0, 5), (5, 0), (2, 3)]), 3)
    def test_pieces_of_a_few_keys(self, case, budget):
        # _from_pairs walks the sorted keys in pieces of the arc budget, which runs of one key
        # straddle: its dedup, the count of reverse arcs and both arc scatters must hold at any cut
        n, edges = case
        adj, loops, dups = adjacency_of(n, edges)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_ARC_BUDGET", budget)
            graphs = [Graph.from_edges(n, edges), load_edge_list(f"{a} {b}" for a, b in edges)]
        assert graphs[0] == Graph(adj)
        order = list(dict.fromkeys(v for e in edges for v in e))  # the parse numbers labels as they appear
        new = {v: i for i, v in enumerate(order)}
        assert graphs[1] == Graph(adjacency_of(len(order), [(new[a], new[b]) for a, b in edges])[0],
                                  labels=tuple(map(str, order)))
        for g in graphs:
            assert (g.self_loops_dropped, g.duplicate_edges_dropped) == (loops, dups)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 8), max_size=30), st.integers(0, 2**32 - 1))
    def test_configuration_model_equals_the_adjacency_constructor(self, degrees, seed):
        if sum(degrees) % 2:
            degrees = [degrees[0] + 1] + degrees[1:]
        g = configuration_model(degrees, seed=seed)
        adj, loops, dups = adjacency_of(len(degrees), list(g.edges()))
        assert g == Graph(adj)
        assert (loops, dups) == (0, 0)
        # the stub pairs it erased are counted, as for any graph built from raw pairs
        assert g.self_loops_dropped >= 0 and g.duplicate_edges_dropped >= 0
        assert g.self_loops_dropped + g.duplicate_edges_dropped == sum(degrees) // 2 - g.edge_count
        assert all(d <= want for d, want in zip(g.degrees(), degrees))


def id_builds(n: int, edges: list[tuple[int, int]], seed: int) -> dict[str, list[Graph]]:
    """The graphs every way in makes from the raw edges ``edges`` on ``n`` nodes: the text and
    binary parse, in pieces of a few lines, from_edges, the adjacency constructor, both
    generators, and the subgraph cuts of the from_edges graph. Each piece of a parse must
    hold its ids in the dtype of the labels met so far, so the last one in the graph's."""
    text, real, dtypes = [f"{a} {b}" for a, b in edges], edgelist_module._from_pairs, []

    def spy(node_count, pairs, *args, **kwargs):
        dtypes.append([ids.dtype for ids in pairs])
        return real(node_count, pairs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgelist_module, "_CHUNK_LINES", 3)
        mp.setattr(edgelist_module, "_BLOCK_BYTES", 8)
        mp.setattr(edgelist_module, "_from_pairs", spy)
        parsed = [load_edge_list(text), load_edge_list(io.BytesIO("\n".join(text).encode()))]
    for g, pieces in zip(parsed, dtypes):
        assert pieces == sorted(pieces, key=lambda dtype: dtype.itemsize)  # int32 until the bound is passed
        assert not pieces or pieces[-1] == graph_module._id_dtype(g.node_count)
    g = Graph.from_edges(n, edges)
    spec = AppendageSpec(core_size=4 + n % 3, tentacle_lengths=(1 + n % 2,), fiber_inner_counts=(1 + len(edges) % 2,),
                         seed=seed)
    return {
        "text": parsed[:1],
        "binary": parsed[1:],
        "from_edges": [g],
        "adjacency": [Graph(adjacency_of(n, edges)[0])],
        "configuration_model": [configuration_model(g.degrees(), seed=seed)],
        "appendage": [generate_appendage_graph(spec)[0]],
        "giant_core": [giant_core(g)],
        "induced_subgraph": [induced_subgraph(g, range(0, n, 2))],
        "component_graphs": list(graph_module._component_graphs(g, *_component_ids(g))),
    }


def assert_oracle_analyses(g: Graph) -> None:
    """Components, the peel, the kernel, both crawls and the edge writer on ``g``, against the oracles."""
    n = g.node_count
    cid, sizes = _component_ids(g)
    assert (tuple(cid.tolist()), tuple(sizes.tolist())) == exact_labeling(g)
    # the peel's roots: the 2-core of each component that has one, one node of each tree
    roots, two_core = set(graph_module._peel(g).core.tolist()), oracle_two_core(g)
    for group in uf_components(g):
        assert group & roots == group & two_core if group & two_core else len(group & roots) == 1
    assert [row for block in _distance_blocks(g, range(n)) for row in block.tolist()] == oracle_rows(g)
    for start in {0, n // 2, n - 1} if n else ():
        for policy in ("fifo", "random"):
            trace = simulate_crawl(g, start=start, policy=policy, stride=1, seed=start)
            assert (list(trace.p), list(trace.d)) == crawl_oracle(g, start, policy, 1, start)
    with tempfile.TemporaryDirectory() as out:
        _write_edges(out, "edges.txt", g)
        with open(os.path.join(out, "edges.txt"), "rb") as fh:
            written = fh.read().decode()
    edges = sorted((u, w) for u in range(n) for w in g.neighbors(u) if u < w)
    assert written == "".join(f"{g.label_of(u)} {g.label_of(w)}\n" for u, w in edges)


class TestNodeIdDtypes:
    """Node ids are int32 in a graph of at most ``_ID32_NODES`` nodes and int64 beyond. With that
    bound cut to a drawn size, small graphs are built both ways, a parse switching as its labels
    pass the bound and a cut of an int64 graph giving int32 ones, and with an arc budget that
    makes every gather through ids cast them one at a time; every build must equal its all-int32
    build, keep the CSR contract and give the oracles' analyses."""

    @settings(max_examples=60, deadline=None)
    @given(RAW_EDGES, st.integers(0, 26), st.integers(0, 2**32 - 1))
    @example((7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (6, 6)]), 0, 0)  # every id int64
    @example((7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (6, 6)]), 4, 0)  # both within a build
    def test_every_builder_both_ways(self, case, bound, seed):
        n, edges = case
        narrow = id_builds(n, edges, seed)
        for graphs in narrow.values():
            for g in graphs:
                assert g.indices.dtype == np.int32
                assert_csr_contract(g)
                assert_oracle_analyses(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_ID32_NODES", bound)
            mp.setattr(graph_module, "_ARC_BUDGET", 8)  # gathers through ids cast them one at a time
            wide = id_builds(n, edges, seed)
            for name, graphs in wide.items():
                assert len(graphs) == len(narrow[name]), name
                for g, want in zip(graphs, narrow[name]):
                    assert g == want, name
                    assert (g.labels, g.origin_nodes) == (want.labels, want.origin_nodes), name
                    assert (g.self_loops_dropped, g.duplicate_edges_dropped) == (
                        want.self_loops_dropped, want.duplicate_edges_dropped), name
                    assert_csr_contract(g)
                    assert_oracle_analyses(g)


@st.composite
def connected_graphs(draw, max_nodes: int = 140) -> Graph:
    """A random spanning tree on 2 to ``max_nodes`` nodes plus a few random edges."""
    n = draw(st.integers(2, max_nodes))
    links = draw(st.lists(st.integers(0, 2**16), min_size=n - 1, max_size=n - 1))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    return Graph.from_edges(n, [(v, x % v) for v, x in enumerate(links, start=1)] + extra)


class TestLevelFold:
    """Sampled path lengths and depth add up the kernel's per-level popcounts with no block of
    distances; both must equal per-source sums of Floyd-Warshall distances, with 1, 64, 65 and
    129 sources, so that several blocks of 64 are folded."""

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(), st.integers(0, 2**32 - 1))
    @example(Graph.from_edges(131, [(v, v + 1) for v in range(130)]), 0)  # 129 sources: three blocks, 130 levels
    @example(Graph.from_edges(2, [(0, 1)]), 1)
    def test_sampled_modes_match_floyd_warshall(self, g, seed):
        n, rows = g.node_count, oracle_rows(g)
        for k in (1, 64, 65, 129):
            chosen = graph_module._sources(n, "sampled", k, seed, "sources")
            pairs = Counter(d for s in chosen for v, d in enumerate(rows[s]) if v != s)
            report = stats_module.path_length_report(g, "sampled", sources=k, seed=seed)
            assert report.histogram.bins == dict(sorted(pairs.items()))
            assert report.total_pairs == len(chosen) * (n - 1) and report.source_count == len(chosen)
            assert report.diameter == max(pairs)
            assert report.mean == float(np.dot(np.arange(n), [pairs[d] for d in range(n)]) / report.total_pairs)
            depth = structure_module.depth_map(g, "sampled", anchors=k, seed=seed)
            assert depth.anchors == chosen
            assert depth.depths == tuple(sum(rows[s][v] for s in chosen) / len(chosen) for v in range(n))
