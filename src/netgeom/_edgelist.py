"""The edge-list parser behind ``graph.load_edge_list``.

An edge list is parsed by one loop over its pieces (``_pieces``): the blocks
of whole lines of a binary file, their line ends made ``\\n``, or chunks of
text lines joined by NUL. Each is offered to one tokenizer, ``_byte_tokens``:
it splits ASCII bytes into tokens in numpy and tells labels apart by a uint64
key of each token's bytes. ``_Labels.of_keys`` ranks a piece's keys with one
sort, and only a label not seen before becomes a Python string, read from its
key. A piece it cannot take (non-ASCII text, a NUL, a token over 8 bytes, a
malformed line) is decoded alone and split as Python strings by one line loop,
``_line_tokens``, which also names a malformed line; the next piece goes to
the tokenizer again. Both paths number labels in first-appearance order through
one table, so they may alternate. A malformed line is reported only once the
whole source is read, so input that is not UTF-8 anywhere is named as such.

The parser is a module apart from graph.py because a process that writes no
bytecode cache compiles each module it loads, one at a time, and the largest
compile sets the floor of its resident size: graph.py with the parser took
about 2.55 MB to compile, more than any other module (cli.py 2.25 MB).
"""
from __future__ import annotations

import codecs
import io
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .graph import EdgeListParseError, Graph, _from_pairs, _id_dtype


_CHUNK_LINES = 1 << 16  # text lines parsed per step; bounds the token strings alive at once
_BLOCK_BYTES = 1 << 20  # bytes read per step from a binary file, then cut back to its last line end

# translation of a piece's bytes for _byte_tokens: ASCII whitespace as str.split() sees it (\x1c-\x1f
# included) and NUL, which joins the lines of a text chunk, to 0; every other byte kept
_TOKEN_BYTES = bytes(0 if c == 0 or (c < 128 and chr(c).isspace()) else c for c in range(256))


def parse(source: Iterable[str] | BinaryIO) -> Graph:
    """``graph.load_edge_list``: one loop over the pieces of ``source``."""
    labels, ids, error = _Labels(), [], None
    for first_line, data, sep, lines in _pieces(source):
        if error is None and data is not None and (keys := _byte_tokens(data, sep)) is not None:
            ids.append(labels.of_keys(keys))
        elif error is None:
            try:
                ids.append(labels.of_tokens(_line_tokens(lines(), first_line=first_line)))
            except EdgeListParseError as e:
                error = e
        else:
            lines()  # decodes a binary block, so that bytes that are not UTF-8 win
    if error is not None:
        raise error
    return _from_pairs(len(labels.index), ids, labels=labels.index)


def _pieces(source: Iterable[str] | BinaryIO) -> Iterator[tuple[int, bytes | None, int, Callable]]:
    """The pieces of ``source`` in order, each as (the number of its first line,
    its bytes for ``_byte_tokens`` or None if a NUL is inside a line, the byte
    that ends its lines there, a call that gives its lines as strings).

    A binary file's pieces are its blocks of ``_whole_lines`` as a ``utf-8-sig``
    text read sees them before decoding: a leading byte-order mark dropped (a
    file that is only the start of one reads as empty) and ``\\r\\n`` and a lone
    ``\\r`` made ``\\n``. No block splits a ``\\r\\n``, and ``\\r`` is in no
    multi-byte UTF-8 sequence, so bytes that are not UTF-8 stay as they were and
    a block decodes alone. Text lines come ``_CHUNK_LINES`` at a time, joined by NUL.
    """
    line = 1
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        lead = codecs.BOM_UTF8
        for block in _whole_lines(source):
            block, lead = (b"" if lead.startswith(block) else block.removeprefix(lead)), b""
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block
            yield (line, None if b"\0" in block else block, ord("\n"),
                   lambda block=block: block.decode().removesuffix("\n").split("\n"))
            line += block.count(b"\n")
        return
    lines = iter(source)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        data = "\0".join(chunk).encode()
        yield line, data if data.count(b"\0") == len(chunk) - 1 else None, 0, chunk.copy
        line += len(chunk)


def _whole_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks that end where a line does: each read of
    ``_BLOCK_BYTES`` ends at its last ``\\r`` or ``\\n``, so lone-CR line ends bound
    a block as ``\\n`` does, and the rest starts the next block. A ``\\r`` that is
    the last byte of a read waits for the next one, which may start with its
    ``\\n``. A line longer than a read spans as many reads as it needs."""
    parts: list[bytes | memoryview] = []  # what was read since the last line end
    while block := fh.read(_BLOCK_BYTES):
        end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if not end:
            parts.append(block)
            continue
        rest = block[end:]
        parts.append(block if end == len(block) else memoryview(block)[:end])
        # one bytes part joins to itself, uncopied; the read is dropped before the
        # yield, so it does not live on beside the block the caller parses
        whole, parts, block = b"".join(parts), [rest], b""
        yield whole
    if tail := b"".join(parts):
        yield tail


class _Labels:
    """Label -> id numbering in first-appearance order, shared by every parsing path.

    ``index`` holds every label. ``keys`` (sorted) and ``ids`` cache the ids of
    the labels the byte tokenizer has met, by their uint64 key.
    """

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.keys = np.zeros(0, dtype=np.uint64)
        self.ids = np.zeros(0, dtype=np.int64)

    def of_tokens(self, tokens: list[str]) -> np.ndarray:
        for label in dict.fromkeys(tokens):
            self.index.setdefault(label, len(self.index))
        ids = map(self.index.__getitem__, tokens)
        return np.fromiter(ids, dtype=_id_dtype(len(self.index)), count=len(tokens))

    def of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the tokens whose keys are ``keys``, which it sorts in place as ``key << shift | index``
        if the largest key leaves the index room (labels of up to 5 bytes in a 1 MiB block), else
        by ``argsort``. A label not met before is read from its key: its bytes, NUL-padded."""
        if not keys.size:
            return np.zeros(0, dtype=np.int64)
        shift = (len(keys) - 1).bit_length()
        if packed := int(keys.max()).bit_length() + shift <= 64:
            keys <<= np.uint64(shift)
            keys |= np.arange(len(keys), dtype=np.uint64)
            keys.sort()
            ranked = keys >> np.uint64(shift)
            order = np.bitwise_and(keys, np.uint64((1 << shift) - 1), out=keys).view(np.int64)
        else:
            order = np.argsort(keys)
            ranked = keys[order]
        heads = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])  # where each run of a key starts
        distinct, first = ranked[heads], order[heads] if packed else np.minimum.reduceat(order, heads)
        ranked = None  # read: freed before the ids are spread over the tokens
        at = np.searchsorted(self.keys, distinct)
        known = np.zeros(len(distinct), dtype=bool)
        if self.keys.size:
            known = self.keys[np.minimum(at, len(self.keys) - 1)] == distinct
        uid = np.zeros(len(distinct), dtype=np.int64)
        uid[known] = self.ids[at[known]]
        if (new := np.flatnonzero(~known)).size:
            seen = new[np.argsort(first[new])]  # in first-appearance order
            # "S8" drops the NUL padding, no token holds a space, and the line loop may have numbered a label
            labels = b" ".join(distinct[seen].astype("<u8", copy=False).view("S8").tolist()).decode().split(" ")
            uid[seen] = [self.index.setdefault(label, len(self.index)) for label in labels]
            at = at[new]  # distinct is sorted, so inserting each new key before at keeps the table sorted
            self.keys, self.ids = np.insert(self.keys, at, distinct[new]), np.insert(self.ids, at, uid[new])
        out = np.empty(len(keys), dtype=_id_dtype(len(self.index)))
        out[order] = np.repeat(uid.astype(out.dtype), np.diff(heads, append=len(keys)))
        return out


def _byte_tokens(data: bytes, sep: int) -> np.ndarray | None:
    """The data tokens of the lines of ``data`` that byte ``sep`` separates,
    in order, as uint64 keys; None unless ``data`` is ASCII, every data token
    has at most 8 bytes and each data line has exactly two tokens. The caller
    sees to it that ``sep`` is the only line break in ``data`` and that no NUL
    is inside a line.

    A key is the token's bytes read little-endian from a zero-padded 8-byte
    window, so distinct tokens of 1 to 8 non-NUL bytes have distinct keys. No
    array holds a position: tokens and line ends are byte masks, and a key's
    width is read from the key.
    """
    if not data.isascii():
        return None
    # one padded copy, the bytes no token holds made 0 and the line ends -128, the only negative ones
    z = np.frombuffer(b"".join((b"\0", data, bytes(8))).translate(
        _TOKEN_BYTES[:sep] + b"\x80" + _TOKEN_BYTES[sep + 1 :]), dtype=np.int8)
    # a block of long labels is turned down by its first 4 KiB alone, before its lines are read;
    # a comment's tokens may be longer, and a long data token further on fails the last check
    if b"#" not in data and b"\1" * 9 in (z[:4096] > 0).tobytes():
        return None
    inside = z > 0
    lead = inside[1:] > inside[:-1]  # where a token starts, by its place in data
    seq = z[1:][np.logical_or(z[1:] < 0, lead, out=inside[1:])]  # per token its first byte, per line end -128
    if b"#" in data:  # drop the lines whose first token starts with '#'
        end = seq < 0
        line = np.cumsum(end)  # per token or line end, the line ends before it
        comment = np.bincount(line[~end & np.r_[True, end[:-1]] & (seq == ord("#"))], minlength=line[-1] + 1)
        drop = comment.astype(bool)[line] & ~end
        lead[np.flatnonzero(lead)[drop[~end]]] = False
        seq = seq[~drop]
    token, seq, inside = np.r_[False, seq > 0, False], None, None
    if (token[1:-1] & (token[:-2] == token[2:])).any():  # a line of one token, or of three or more
        return None
    lead, token = lead[: len(data)], None
    keys = np.ndarray(len(data), dtype="<u8", buffer=z, offset=1, strides=(1,))[lead]
    long, z, lead = z[9:][lead] > 0, None, None  # long: a token's ninth byte is a token's
    # the high bit of each byte of a key from the first that ends its token, 0 or -128, up: the
    # bytes below it are 1 to 0x7f, so no borrow of the subtraction reaches it
    flag = np.subtract(keys, np.uint64(0x0101010101010101))
    flag |= keys
    flag &= np.uint64(0x8080808080808080)
    if (long & (flag == 0)).any():  # a data token over 8 bytes
        return None
    flag -= np.uint64(1)  # the bytes below the lowest flag 0xff, that one 0x7f, those above 0 or 0x80
    flag &= np.uint64(0x7F7F7F7F7F7F7F7F)  # all 0x7f for a token of 8 bytes
    keys &= flag
    return keys


def _line_tokens(lines: list[str], first_line: int = 1) -> list[str]:
    """Every data token in order, raising EdgeListParseError at the first data
    line that does not have exactly two tokens."""
    tokens: list[str] = []
    for line_no, pair in enumerate(map(str.split, lines), start=first_line):
        if len(pair) == 2 and pair[0][0] != "#":
            tokens += pair
        elif pair and pair[0][0] != "#":  # a data line, neither blank nor a comment
            raw = lines[line_no - first_line]
            raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(pair)}: {raw.rstrip()!r}")
    return tokens
