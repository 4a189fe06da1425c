"""Rules on the source text, checked on every tier-1 run.

Each test reads the package's modules (and, for the CSR check, the tests) as
text and fails naming every offending ``path:line``.
"""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netgeom"
MODULES = sorted(PACKAGE.glob("*.py"))


def lines(paths):
    """(``path:line``, text) for each line of ``paths``, the path relative to the repository."""
    for path in paths:
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield f"{path.relative_to(ROOT)}:{no}", line


def matches(paths, pattern: str) -> list[str]:
    """``path:line: text`` for each line of ``paths`` that ``pattern`` finds."""
    return [f"{where}: {line.strip()}" for where, line in lines(paths) if re.search(pattern, line)]


def test_lines_are_at_most_112_characters():
    long = [f"{where}: {len(line)} characters" for where, line in lines(MODULES) if len(line) > 112]
    assert not long, "\n".join(long)


def test_no_bitwise_count():
    # np.bitwise_count needs numpy 2.0, the floor is 1.24, and the bit-packed kernels make it tempting
    found = matches(MODULES, r"bitwise_count")
    assert not found, "\n".join(found)


def test_one_arc_budget():
    # every bounded pass over CSR rows (row folds, edge slices, the fifo crawl) takes the one
    # _ARC_BUDGET of netgeom/__init__.py: no module sets another, nor an edge-count slice size
    others = [path for path in MODULES if path.name != "__init__.py"]
    found = matches(others, r"_ARC_BUDGET *=([^=]|$)") + matches(MODULES, r"_EDGE_SLICE")
    assert not found, "\n".join(found)


def test_one_csr_check():
    # the CSR invariants are written once, as netgeom._csr._check_csr, which Graph(adjacency) runs
    # and the autouse fixture of tests/conftest.py runs on every Graph._set
    found = matches(sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")),
                    r"def _?check_csr\b")
    assert len(found) == 1, "\n".join(found) or "no CSR check under src and tests"


def test_every_all_reads_the_public_table():
    # netgeom._PUBLIC is the one list of public names, and each module's __all__ reads its entry
    wrong = []
    for module in ("graph", "generators", "stats", "structure", "embedding", "crawl"):
        found = matches([PACKAGE / f"{module}.py"], r"^__all__")
        need = f'_PUBLIC["{module}"]'
        wrong += [f"{line} (must read {need})" for line in found if need not in line]
        if not found:
            wrong.append(f"src/netgeom/{module}.py: no __all__ (must read {need})")
    assert not wrong, "\n".join(wrong)


def test_no_object_dtype():
    # a bulk path that makes one Python object per edge, arc or cell is what the byte tables
    # and the CSR row slices replaced
    found = matches(MODULES, r"dtype=object|astype\(object\)")
    assert not found, "\n".join(found)
