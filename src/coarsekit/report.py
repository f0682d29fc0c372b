"""Verdicts and deterministic report rendering.

Machine reports are line-oriented ``key=value`` text, bit-stable across runs
for identical inputs: keys are emitted in construction order and floats are
formatted with shortest round-trip ``repr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def fmt_num(v) -> str:
    """Integers without a trailing .0, floats via repr, explicit inf and nan."""
    f = float(v)
    if not math.isfinite(f):
        return repr(f)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


@dataclass(frozen=True)
class CheckItem:
    path: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    @property
    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(i for i in self.items if not i.passed)


def verdict(items: list[CheckItem]) -> Verdict:
    return Verdict(tuple(items))


@dataclass
class Report:
    """Accumulates machine key=value pairs and human-readable text lines."""

    pairs: list[tuple[str, str]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def add(self, key: str, value, text: str | None = None) -> None:
        if isinstance(value, bool):
            sval = "true" if value else "false"
        elif isinstance(value, (int, float)):
            sval = fmt_num(value)
        else:
            sval = str(value)
        self.pairs.append((key, sval))
        if text is not None:
            self.lines.append(text)

    def text(self, line: str) -> None:
        self.lines.append(line)

    def extend_verdict(self, prefix: str, v: Verdict) -> None:
        for item in v.items:
            key = f"{prefix}.{item.path}" if item.path else prefix
            self.add(key, "pass" if item.passed else "fail")
            if not item.passed and item.detail:
                self.add(key + ".witness", item.detail)
        for item in v.failures:
            self.text(f"FAIL {item.path}: {item.detail}")

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "".join(f"{k}={v}\n" for k, v in self.pairs)
        return "".join(line + "\n" for line in self.lines)
