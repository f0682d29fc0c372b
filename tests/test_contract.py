"""The exit-code contract on inputs whose size sets the depth of a walk.

Each command runs under a low recursion limit, so a walk that recursed
once per stage or per point would fail here on small inputs instead of
only on large ones.
"""

import sys
from contextlib import contextmanager

from coarsekit.cli import run
from coarsekit.generators import unit_path
from coarsekit.io import parse_decomposition_certificate, parse_family, write_family
from support import family_of

LOW_RECURSION_LIMIT = 120


def one_point_tower(stages: int) -> str:
    """A decomposition certificate of ``stages`` stages over the one-point
    family ``f``: each stage keeps the single point in one piece."""
    lines = []
    family_id, member_id = "f", "m"
    for k in range(stages):
        lines += ["decomposition-certificate", f"family {family_id}", "r 1", "n 0",
                  f"member {member_id}", "color 0", "piece : a"]
        lines.append("child" if k < stages - 1 else "leaf-bound 0")
        family_id, member_id = family_id + "|pieces", member_id + ".0.0"
    return "\n".join(lines) + "\n"


@contextmanager
def low_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(LOW_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def run_twice_at_low_limit(argv):
    with low_recursion_limit():
        return run(argv), run(argv)


def test_tall_tower_checks_without_recursion(tmp_path):
    (tmp_path / "fam.txt").write_text("family f\nmember m\npoints a\n")
    (tmp_path / "cert.txt").write_text(one_point_tower(150))
    argv = ["check-cert", str(tmp_path / "fam.txt"), str(tmp_path / "cert.txt")]
    first, second = run_twice_at_low_limit(argv)
    assert first[1] == 0 and "PASS" in first[0]
    assert second == first


def test_tall_tower_compares_hashes_and_prints_without_recursion():
    family = parse_family("family f\nmember m\npoints a\n")
    tower = one_point_tower(150)
    a, b = (parse_decomposition_certificate(tower, family) for _ in range(2))
    # the same tower with its last stage's leaf bound changed
    c = parse_decomposition_certificate(tower.replace("leaf-bound 0", "leaf-bound 1"), family)
    with low_recursion_limit():
        assert a == b and a is not b
        assert a != c and c != a
        assert hash(a) == hash(b)
        text = repr(a)
    assert a.depth() == 150 and text.count("DecompositionCertificate(") == 150
    assert text.startswith("DecompositionCertificate(family_id='f', r=1.0, n=0, members=")
    assert text.endswith(", leaf_bound=0.0, child=None" + ")" * 150)


def test_long_path_exact_search_without_recursion(tmp_path):
    (tmp_path / "fam.txt").write_text(write_family(family_of(unit_path(120, "p"), family_id="F")))
    argv = ["decompose", str(tmp_path / "fam.txt"), "--r", "1", "--n", "1", "--bound", "1"]
    first, second = run_twice_at_low_limit(argv)
    assert first[1] == 0 and "p: found" in first[0]
    assert second == first
