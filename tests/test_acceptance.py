"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 9's stated universe (all 6-point integer metrics with distances up
to 5) cannot be enumerated in any reasonable time (~3e10 raw matrices); the
executed universe is every metric space with <= 4 points and distances <= 5
plus every space with 5..6 points and distances <= 2, reduced up to isometry
(the tested agreement is isometry-invariant), across the full integer
(r, n <= 2, bound) grid.  The counts, as raw matrices -> metrics -> isometry
classes: 3 points cap 5, 125 -> 95 -> 28; 4 points cap 5, 15625 -> 6321 ->
418; 5 points cap 2, 1024 -> 1024 -> 34; 6 points cap 2, 32768 -> 32768 ->
156.  With the 1- and 2-point spaces (1 and 5 classes) that is 642 spaces
and 53946 (r, n, bound) runs.
"""

import itertools
import math
import time

import numpy as np

from coarsekit.cli import run as cli_run
from coarsekit.cone import (
    ConePoint,
    chain_oracle,
    cone_distance,
    phi_closed_exp,
)
from coarsekit.constructions import (
    minimax_ultrametric,
    ray_tree_embed,
    shell_sequence,
)
from coarsekit.covers import (
    Cover,
    cover_dimension,
    lebesgue_number,
    mesh,
    product_control_coefficient,
    pushforward_quotient_cover,
)
from coarsekit.decomposition import (
    FiberingWitness,
    check_decomposition,
    check_fibering_witness,
    r_components,
    search_decomposition,
    union_separator_map,
)
from coarsekit.errors import PreconditionError
from coarsekit.generators import (
    grid_projection_fixture,
    path_asdim_certificate,
    unit_path,
)
from coarsekit.io import (
    ActionDocument,
    write_action,
    write_asdim_certificate,
    write_family,
    write_fibering_witness,
    write_map,
    write_subsets,
)
from coarsekit.metric import (
    FiniteMetricSpace,
    MetricFamily,
    PointSubset,
    ball,
    product,
)
from coarsekit.phisuite import run_phi_suite, standard_rho_family
from support import (
    brute_force_decomposable,
    brute_minimax,
    closure_blocks,
    cyclic_isometric_action,
    family_of,
    integer_points_space,
    line_space,
    minimizer_height,
    numeric_phi,
    random_cover_sets,
    random_symmetric_matrix,
    strong_triangle_violations,
)


def announce(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{tail}")
    assert ok, f"criterion {number} failed"


def test_c01_phi_closed_form_vs_numeric():
    start = time.perf_counter()
    ts = np.arange(0.0, 5.0001, 0.5)
    rs = np.arange(0.0, 100.0001, 0.1)
    grid_t, grid_r = np.meshgrid(ts, rs, indexing="ij")
    gap = np.abs(numeric_phi(standard_rho_family()[4], grid_t, grid_r) - phi_closed_exp(grid_t, grid_r))
    elapsed = time.perf_counter() - start
    ok = float(gap.max()) <= 1e-7 and elapsed < 1.0
    announce(1, "phi closed form vs numeric on the (t, r) grid", ok,
             f"max gap {gap.max():.2e}, {elapsed:.2f}s")


def test_c02_phi_property_suite():
    start = time.perf_counter()
    verdict = run_phi_suite(samples=1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = verdict.passed and elapsed < 10.0
    detail = "; ".join(i.path for i in verdict.failures) or f"{len(verdict.items)} checks"
    announce(2, "nine phi properties across the rho family", ok, f"{detail}, {elapsed:.2f}s")


def test_c03_chain_oracle_vs_cone_distance():
    rng = np.random.default_rng(101)
    family = standard_rho_family()
    worst_with, worst_without = 0.0, 0.0
    for trial in range(200):
        y = integer_points_space(rng, int(rng.integers(2, 13)), space_id=f"y{trial}")
        rho = family[int(rng.integers(0, len(family)))]
        a = ConePoint(int(rng.integers(0, y.n)), float(rng.uniform(0, 6)))
        b = ConePoint(int(rng.integers(0, y.n)), float(rng.uniform(0, 6)))
        target = cone_distance(rho, y, a, b)
        s_star = minimizer_height(rho, a, b, float(y.dist[a.base, b.base]))
        with_min = chain_oracle(rho, y, a, b, [s_star])
        worst_with = max(worst_with, abs(with_min - target))
        extra = [float(h) for h in rng.uniform(0, 8, size=int(rng.integers(0, 3)))]
        without = chain_oracle(rho, y, a, b, extra)
        worst_without = max(worst_without, target - without)
    ok = worst_with <= 1e-6 and worst_without <= 1e-6
    announce(3, "chain oracle agrees with the cone distance", ok,
             f"with minimizer {worst_with:.2e}, undercut {worst_without:.2e}")


def test_c04_quotient_cover_guarantees():
    rng = np.random.default_rng(202)
    violations = 0
    for trial in range(100):
        base = integer_points_space(rng, int(rng.integers(4, 31)), space_id=f"b{trial}")
        order = int(rng.integers(2, 5))
        sym, act = cyclic_isometric_action(rng, base, order)
        sets = random_cover_sets(rng, sym, elements=int(rng.integers(2, 6)))
        cov = Cover(sym.id, tuple(PointSubset(sym.id, s) for s in sets))
        q, qcov = pushforward_quotient_cover(sym, act, cov)
        in_dim = cover_dimension(cov, sym)
        if cover_dimension(qcov, q) > order * (in_dim + 1) - 1:
            violations += 1
        if lebesgue_number(qcov, q) < lebesgue_number(cov, sym):
            violations += 1
        if mesh(qcov, q) > mesh(cov, sym):
            violations += 1
    announce(4, "quotient pushforward dimension/Lebesgue/mesh guarantees", violations == 0,
             f"{violations} violations in 100 runs")


def test_c05_product_metric_inequalities():
    rng = np.random.default_rng(303)
    exponents = [1.0, 2.0, 4.0, math.inf]
    checked = 0
    ok = True
    while checked < 1000:
        m = int(rng.integers(1, 5))
        factors = [
            integer_points_space(rng, int(rng.integers(2, 4)), space_id=f"f{checked}_{k}")
            for k in range(m)
        ]
        prods = {p: product(factors, p) for p in exponents}
        n = prods[1.0].n
        for _ in range(40):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            for p in exponents:
                for q in exponents:
                    if p > q:
                        continue
                    scale = m ** ((0 if math.isinf(p) else 1 / p) - (0 if math.isinf(q) else 1 / q))
                    dq, dp = prods[q].dist[i, j], prods[p].dist[i, j]
                    ref = max(dp, dq, 1.0)
                    if dq > dp + 1e-12 * ref or dp > scale * dq + 1e-12 * ref:
                        ok = False
            checked += 1
            if checked >= 1000:
                break
    announce(5, "l^p product comparison inequalities", ok, f"{checked} pairs")


def test_c06_minimax_ultrametric_oracle():
    rng = np.random.default_rng(404)
    ok = True
    for trial in range(500):
        s = integer_points_space(rng, int(rng.integers(2, 9)), dim=2,
                                 coord_range=15, space_id=f"s{trial}")
        if not np.array_equal(minimax_ultrametric(s).dist, brute_minimax(s)):
            ok = False
    floors = True
    strong = True
    for size in (60, 130, 200):
        s = integer_points_space(rng, size, dim=2, coord_range=60, space_id=f"big{size}")
        u = minimax_ultrametric(s)
        strong = strong and not strong_triangle_violations(u)
        floors = floors and bool((u.dist <= np.maximum(s.dist, 1.0)).all())
    announce(6, "minimax ultrametric equals all-chains brute force", ok and strong and floors,
             "500 small spaces exact; strong triangle exact up to 200 points")


def build_star(ray_lengths, space_id):
    labels = ["c"]
    coords = [(-1, 0)]
    for j, length in enumerate(ray_lengths):
        for m in range(1, length + 1):
            labels.append(f"r{j}:{m}")
            coords.append((j, m))
    n = len(labels)
    d = np.zeros((n, n))
    for a in range(n):
        ja, ma = coords[a]
        for b in range(a + 1, n):
            jb, mb = coords[b]
            d[a, b] = d[b, a] = abs(ma - mb) if (ja == jb or ma == 0 or mb == 0) else ma + mb
    return FiniteMetricSpace(space_id, tuple(labels), d)


def test_c07_ray_tree_coarseness():
    rng = np.random.default_rng(505)
    ok = True
    for trial in range(50):
        rays = int(rng.integers(2, 5))
        lengths = [int(rng.integers(4, 60 // rays)) for _ in range(rays)]
        s = build_star(lengths, f"star{trial}")
        pieces = []
        for j in range(rays):
            idx = [0] + [s.index(f"r{j}:{m}") for m in range(1, lengths[j] + 1)]
            pieces.append(PointSubset(s.id, tuple(idx)))
        shell_count = 2
        while 1 + shell_count * (shell_count - 1) // 2 < max(lengths):
            shell_count += 1
        seeds = [ball(s, 0, 1)] + [PointSubset(s.id, ())] * shell_count
        shells, covers = shell_sequence(s, seeds)
        assert covers
        tree, fmap = ray_tree_embed(s, pieces, shells)
        assign = fmap.functions[0].assignment
        td = tree.space.dist
        sel = np.array(assign, dtype=int)
        if not (td[np.ix_(sel, sel)] <= 2 * s.dist + 2).all():
            ok = False
    rejected = False
    bad = unit_path(21, "p")
    bad_pieces = [PointSubset("p", tuple(range(0, 13))), PointSubset("p", tuple(range(8, 21)))]
    bad_shells, _ = shell_sequence(bad, [PointSubset("p", (0,))] + [PointSubset("p", ())] * 2)
    bad_shells = list(bad_shells) + [PointSubset("p", tuple(range(21)))]
    try:
        ray_tree_embed(bad, bad_pieces, bad_shells)
    except PreconditionError:
        rejected = True
    announce(7, "ray-tree images within 2d+2 and violating fixture rejected",
             ok and rejected, "50 instances")


def test_c08_union_separator():
    rng = np.random.default_rng(606)
    ok = True
    for trial in range(100):
        s = integer_points_space(rng, int(rng.integers(3, 17)), space_id=f"s{trial}")
        idx = list(range(s.n))
        rng.shuffle(idx)
        cut = int(rng.integers(1, s.n))
        overlap = int(rng.integers(0, 3))
        a = sorted(set(idx[: cut + overlap]))
        b = sorted(set(idx[cut:] + idx[:overlap]))
        if not a or not b:
            continue
        x1, x2 = PointSubset(s.id, tuple(a)), PointSubset(s.id, tuple(b))
        _, _, values = union_separator_map(s, x1, x2)
        for i in range(s.n):
            for j in range(s.n):
                if abs(values[i] - values[j]) > 2 * s.dist[i, j]:
                    ok = False
        for bound in (0.0, 1.0, 2.0, float(s.diameter())):
            sub = {i for i in range(s.n) if values[i] <= bound}
            if sub != {i for i in range(s.n) if min(s.dist[i, j] for j in b) <= bound}:
                ok = False
            sup = {i for i in range(s.n) if values[i] >= -bound}
            if sup != {i for i in range(s.n) if min(s.dist[i, j] for j in a) <= bound}:
                ok = False
    announce(8, "separator map 2-Lipschitz with exact sublevel preimages", ok, "100 spaces")


def _enumerate_metrics(n_points: int, cap: int) -> np.ndarray:
    """Every symmetric integer matrix with off-diagonal entries in 1..cap
    satisfying all triangle inequalities, as (count, n, n) int16."""
    pairs = list(itertools.combinations(range(n_points), 2))
    k = len(pairs)
    grids = (np.indices((cap,) * k).reshape(k, -1).T + 1).astype(np.int16)
    count = grids.shape[0]
    mats = np.zeros((count, n_points, n_points), dtype=np.int16)
    for idx, (i, j) in enumerate(pairs):
        mats[:, i, j] = grids[:, idx]
        mats[:, j, i] = grids[:, idx]
    ok = np.ones(count, dtype=bool)
    for i, j in pairs:
        for mid in range(n_points):
            if mid in (i, j):
                continue
            ok &= mats[:, i, j] <= mats[:, i, mid] + mats[:, mid, j]
    return mats[ok]


def _isometry_classes(mats: np.ndarray, cap: int) -> np.ndarray:
    """One representative per isometry class, by minimizing a base-(cap+1)
    encoding of the upper triangle over all point permutations."""
    n_points = mats.shape[1]
    pairs = list(itertools.combinations(range(n_points), 2))
    pair_pos = {p: k for k, p in enumerate(pairs)}
    vecs = np.stack([mats[:, i, j] for i, j in pairs], axis=1).astype(np.uint64)
    weights = ((cap + 1) ** np.arange(len(pairs), dtype=np.uint64)).astype(np.uint64)
    best = None
    for perm in itertools.permutations(range(n_points)):
        reorder = [pair_pos[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        keys = vecs[:, reorder] @ weights
        best = keys if best is None else np.minimum(best, keys)
    _, first = np.unique(best, return_index=True)
    return mats[np.sort(first)]


def _decomposition_agreement(space, cap) -> tuple[int, bool]:
    runs = 0
    ok = True
    for r in range(0, cap + 1):
        for n in range(0, 3):
            for bound in range(0, cap + 1):
                result = search_decomposition(space, float(r), n, float(bound))
                exists = brute_force_decomposable(space, float(r), n, float(bound))
                runs += 1
                if (result.certificate is not None) != exists:
                    ok = False
                if result.certificate is not None:
                    fam = family_of(space, family_id=space.id)
                    if not check_decomposition(result.certificate, fam).passed:
                        ok = False
    return runs, ok


def test_c09_decomposition_search_oracle():
    universes = [(1, 5), (2, 5), (3, 5), (4, 5), (5, 2), (6, 2)]
    total_spaces = 0
    total_runs = 0
    ok = True
    for n_points, cap in universes:
        if n_points == 1:
            reps = np.zeros((1, 1, 1), dtype=np.int16)
        else:
            reps = _isometry_classes(_enumerate_metrics(n_points, cap), cap)
        for k in range(reps.shape[0]):
            space = FiniteMetricSpace(
                f"m{n_points}_{k}",
                tuple(chr(ord("a") + i) for i in range(n_points)),
                reps[k].astype(np.float64),
            )
            runs, good = _decomposition_agreement(space, cap)
            total_spaces += 1
            total_runs += runs
            ok = ok and good
    announce(9, "exact search agrees with the enumeration oracle", ok,
             f"{total_spaces} spaces up to isometry, {total_runs} (r,n,bound) runs; "
             "executed universe: <=4 pts cap 5, 5..6 pts cap 2")


def test_c10_fibering_witness_end_to_end():
    start = time.perf_counter()
    src, tgt, fmap, witness = grid_projection_fixture(16)
    verdict = check_fibering_witness(witness, src, tgt)
    ok = verdict.passed
    for radius, _ in witness.inner:
        pruned = FiberingWitness(
            witness.fmap,
            witness.radius_schedule,
            tuple((r, c) for r, c in witness.inner if r != radius),
            witness.target_certificate,
        )
        if check_fibering_witness(pruned, src, tgt).passed:
            ok = False
    elapsed = time.perf_counter() - start
    announce(10, "16x16 grid fibering witness end-to-end", ok and elapsed < 5.0,
             f"{elapsed:.2f}s")


def test_c11_control_recurrence():
    ok = product_control_coefficient(2) == 3
    f = 3
    for n in range(3, 21):
        f = 3 * f + 2
        if product_control_coefficient(n) != f or f != 3 ** (n - 1) + 3 ** (n - 2) - 1:
            ok = False
    announce(11, "product control recurrence closed form", ok, "n up to 20, exact integers")


def test_c12_components_vs_closure():
    rng = np.random.default_rng(707)
    ok = True
    for trial in range(500):
        n = int(rng.integers(3, 201))
        if trial % 2:
            m = random_symmetric_matrix(rng, n)
        else:
            m = integer_points_space(rng, n, dim=2, coord_range=50, space_id="x").dist
        s = FiniteMetricSpace(f"s{trial}", tuple(map(str, range(n))), m, pseudo=True)
        r = float(rng.integers(0, int(m.max()) + 2))
        if r_components(s, r).blocks != closure_blocks(m, r):
            ok = False
    mono = True
    for trial in range(20):
        n = int(rng.integers(3, 120))
        m = random_symmetric_matrix(rng, n)
        s = FiniteMetricSpace(f"l{trial}", tuple(map(str, range(n))), m, pseudo=True)
        ladder = sorted(float(v) for v in rng.integers(0, 120, size=5))
        parts = [r_components(s, r).blocks for r in ladder]
        for fine, coarse in zip(parts, parts[1:]):
            for blk in fine:
                if not any(set(blk) <= set(cb) for cb in coarse):
                    mono = False
    announce(12, "scale components equal transitive closure", ok and mono,
             "500 spaces, monotone ladders")


def _determinism_corpus(tmp_path):
    save = lambda name, text: str((tmp_path / name).write_text(text) and 0) or str(tmp_path / name)
    fam = MetricFamily("paths", (unit_path(20, "p"), unit_path(12, "q")))
    fam_path = str(tmp_path / "fam.txt")
    (tmp_path / "fam.txt").write_text(write_family(fam))
    cert = path_asdim_certificate(fam, [1, 2])
    cert_path = str(tmp_path / "cert.txt")
    (tmp_path / "cert.txt").write_text(write_asdim_certificate(cert, fam))
    from coarsekit.generators import path_an_certificate

    an_path = str(tmp_path / "an.txt")
    from coarsekit.io import write_an_certificate

    (tmp_path / "an.txt").write_text(write_an_certificate(path_an_certificate(fam, [1, 2]), fam))
    zfam = family_of(line_space([-2, -1, 0, 1, 2], space_id="z"), family_id="Z")
    zfam_path = str(tmp_path / "zfam.txt")
    (tmp_path / "zfam.txt").write_text(write_family(zfam))
    zcert_path = str(tmp_path / "zcert.txt")
    (tmp_path / "zcert.txt").write_text(
        write_asdim_certificate(path_asdim_certificate(zfam, [1]), zfam)
    )
    action = ActionDocument("flip", ("e", "g"), ((0, 1), (1, 0)),
                            {"z": {"e": (0, 1, 2, 3, 4), "g": (4, 3, 2, 1, 0)}})
    act_path = str(tmp_path / "act.txt")
    (tmp_path / "act.txt").write_text(write_action(action))
    src, tgt, fmap, witness = grid_projection_fixture(5, schedule=(1, 2, 4))
    for name, text in (
        ("gsrc.txt", write_family(src)),
        ("gtgt.txt", write_family(tgt)),
        ("gmap.txt", write_map(fmap, src, tgt)),
        ("gwit.txt", write_fibering_witness(witness, src, tgt)),
    ):
        (tmp_path / name).write_text(text)
    single = family_of(unit_path(12, "p"), family_id="P")
    single_path = str(tmp_path / "single.txt")
    (tmp_path / "single.txt").write_text(write_family(single))
    pieces = [("p", "whole", PointSubset("p", tuple(range(12))))]
    seeds = [("p", "1", PointSubset("p", (0, 1)))] + [
        ("p", str(k), PointSubset("p", ())) for k in range(2, 6)
    ]
    (tmp_path / "pieces.txt").write_text(write_subsets("P", pieces, single))
    (tmp_path / "seeds.txt").write_text(write_subsets("P", seeds, single))
    g = lambda name: str(tmp_path / name)
    return [
        ["validate", fam_path],
        ["components", fam_path, "--r", "2"],
        ["cover-check", fam_path, cert_path],
        ["an-check", fam_path, an_path],
        ["quotient-cover", zfam_path, act_path, zcert_path],
        ["product", zfam_path, "--p", "2"],
        ["decompose", single_path, "--r", "2", "--n", "1", "--bound", "2"],
        ["check-cert", single_path, g("dec.txt")],
        ["check-fibering", g("gsrc.txt"), g("gtgt.txt"), g("gmap.txt"), g("gwit.txt")],
        ["map-analyze", g("gsrc.txt"), g("gtgt.txt"), g("gmap.txt")],
        ["phi", "--rho", "exp", "--t", "1.5", "--r", "42"],
        ["phi-suite", "--samples", "120", "--seed", "3"],
        ["cone-dist", g("gtgt.txt"), "--rho", "affine:2,1", "--base-a", "0",
         "--height-a", "1", "--base-b", "4", "--height-b", "0.5"],
        ["ultrametric", fam_path],
        ["ray-tree", g("single.txt"), g("pieces.txt"), g("seeds.txt")],
    ]


def test_c13_cli_determinism(tmp_path):
    # materialize the decompose output used by check-cert first
    single = family_of(unit_path(12, "p"), family_id="P")
    (tmp_path / "single.txt").write_text(write_family(single))
    out, code = cli_run(
        ["decompose", str(tmp_path / "single.txt"), "--r", "2", "--n", "1",
         "--bound", "2", "--out", str(tmp_path / "dec.txt")]
    )
    assert code == 0
    corpus = _determinism_corpus(tmp_path)
    ok = True
    for argv in corpus:
        results = {}
        for jobs in (1, 4):
            results[jobs] = cli_run(argv + ["--format", "machine", "--jobs", str(jobs)])
        if results[1] != results[4]:
            ok = False
        again = cli_run(argv + ["--format", "machine", "--jobs", "1"])
        if again != results[1]:
            ok = False
    announce(13, "machine reports byte-identical across jobs 1 and 4", ok,
             f"{len(corpus)} commands, all 15 subcommands")
