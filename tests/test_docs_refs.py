"""Every code and test reference in docs/PROTOCOLS.md must resolve.

Test references (`tests/<file>.py::<Name>[::<name>]`) resolve to a class or
function by parsing the test file, never importing it; source references
(`repro/<path>.py[::<Name>[.<name>]]`) name a file under ``src/`` and, when
a symbol is given, a class or function defined in it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ROOT / "docs" / "PROTOCOLS.md"

_TEST_REF = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+)*)`")
_SOURCE_REF = re.compile(r"`(repro/[\w/]+\.py)((?:::[\w.]+)?)`")


def _definitions(body: list[ast.stmt]) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _resolves(path: Path, names: list[str]) -> bool:
    scope: list[ast.stmt] = ast.parse(path.read_text()).body
    for name in names:
        node = _definitions(scope).get(name)
        if node is None:
            return False
        scope = getattr(node, "body", [])
    return True


def _references(pattern: re.Pattern) -> list[tuple[str, list[str]]]:
    text = PROTOCOLS.read_text()
    return [
        (path, [name for name in re.split(r"::|\.", symbol.lstrip(":")) if name])
        for path, symbol in pattern.findall(text)
    ]


def test_test_references_resolve():
    references = _references(_TEST_REF)
    assert len(references) >= 30
    stale = [
        (path, names)
        for path, names in references
        if not (ROOT / path).is_file() or not _resolves(ROOT / path, names)
    ]
    assert stale == []


def test_source_references_resolve():
    references = _references(_SOURCE_REF)
    assert references
    stale = [
        (path, names)
        for path, names in references
        if not (ROOT / "src" / path).is_file() or not _resolves(ROOT / "src" / path, names)
    ]
    assert stale == []
