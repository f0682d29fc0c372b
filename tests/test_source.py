"""The package, its tests and its benchmark keep to Python 3.10 grammar, the
oldest version ``pyproject.toml`` admits, when run on a newer interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_every_source_file_parses_as_python_3_10():
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("text", ["try:\n    pass\nexcept* ValueError:\n    pass\n", "def f[T](x: T) -> T:\n    return x\n"],
                         ids=["except-star", "type-parameters"])
def test_newer_grammar_is_refused(text):
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))
