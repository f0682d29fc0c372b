"""Seeded input generation for the four benchmark workloads.

Run as a script, it writes every input file of one workload into a work
directory and a ``manifest.json`` that lists the jobs of one pass:

    python3 bench/workloads.py --workload ingest-certify --seed 3 --dir WORKDIR --src src

Every expected exit code and verdict is fixed here from the construction
(a planted violation, a generator certificate, decomposability known by
construction); nothing is recorded from the program's own output.  The
seed changes point coordinates, defect locations and the job order, never
the size profile or the job mix, so a claim can be re-checked on a seed
that was not used while writing it.

Each job also carries the deterministic work counters it contributes to one
pass (tokens parsed, triangle triples, pairs compared), computed from the
generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

# Each workload runs two of the four job groups (ingest, certify, cone,
# emit) in one pass: fewer, longer runs keep the figures steady on a shared
# machine whose speed drifts over tens of seconds.
WORKLOADS = ("ingest-certify", "cone-emit")

# Cone workload constants: the rho family of `phi` / `cone-dist` jobs, one
# literal per rho kind, and the waypoint heights of the library calls.
STEP_RHO = "step:0:0.5,2:3,5:40,9:200"
CONE_RHOS = ("const:5", "affine:3,2", "exp", STEP_RHO, "table")
TABLE_ROWS = tuple((0.5 * k, 0.1 * k * k) for k in range(50))
CONE_HEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0)


# ---------------------------------------------------------------- writers


def family_text(family_id: str, members) -> str:
    """Family document for integer-valued members ``(id, labels, dist)``."""
    lines = [f"family {family_id}"]
    for member_id, labels, d in members:
        lines.append(f"member {member_id}")
        lines.append("points " + " ".join(labels))
        rows = np.asarray(d).astype(np.int64)
        for i in range(1, len(labels)):
            lines.append(" ".join(map(str, rows[i, :i].tolist())))
    return "\n".join(lines) + "\n"


def count_tokens(text: str) -> int:
    """Tokens under the shared lexical rules: whitespace-separated, ``#``
    starts a comment."""
    return sum(len(line.split("#", 1)[0].split()) for line in text.splitlines())


# ---------------------------------------------------------------- spaces


def integer_points(rng, n: int, metric: str):
    """n distinct random points of a square integer box (about a quarter
    occupied), with the l^1 or l^inf metric."""
    side = int(np.ceil(2.0 * np.sqrt(n)))
    flat = rng.choice(side * side, size=n, replace=False)
    pts = np.stack([flat // side, flat % side], axis=1)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = diff.sum(axis=2) if metric == "l1" else diff.max(axis=2)
    labels = tuple(f"p{x}_{y}" for x, y in pts.tolist())
    return labels, d.astype(np.float64)


def path_dist(n: int) -> np.ndarray:
    c = np.arange(n, dtype=np.float64)
    return np.abs(np.subtract.outer(c, c))


def cycle_dist(m: int) -> np.ndarray:
    gap = path_dist(m)
    return np.minimum(gap, m - gap)


def grid_dist(w: int, h: int) -> np.ndarray:
    pts = np.array([(i, j) for i in range(w) for j in range(h)], dtype=np.float64)
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)


# ---------------------------------------------------------------- oracles


def expected_violations(d: np.ndarray, a: int, b: int, tol: float = 1e-9) -> dict:
    """Violations of a metric whose only non-metric entries are d[a,b] and
    d[b,a]: every violating triangle contains that pair, so enumerating the
    O(n) triples through it counts all of them."""
    n = d.shape[0]
    ks = np.arange(n)
    triples = set()
    patterns = (
        (np.full(n, a), ks, np.full(n, b)),  # (a, j, b): the pair is the long side
        (np.full(n, b), ks, np.full(n, a)),
        (np.full(n, a), np.full(n, b), ks),  # (a, b, k): the pair is a short side
        (np.full(n, b), np.full(n, a), ks),
        (ks, np.full(n, a), np.full(n, b)),
        (ks, np.full(n, b), np.full(n, a)),
    )
    for i, j, k in patterns:
        slack = d[i, k] - (d[i, j] + d[j, k])
        for t in np.nonzero(slack > tol)[0].tolist():
            triples.add((int(i[t]), int(j[t]), int(k[t])))
    zero = int(d[a, b] == 0.0)
    negative = 2 * int(d[a, b] < 0.0)
    return {"triangle": len(triples), "zero_distance": zero, "negative": negative,
            "total": len(triples) + zero + negative}


def components(d: np.ndarray, r: float) -> list[list[int]]:
    """Blocks of the relation d <= r by breadth-first search, each sorted,
    listed by smallest index."""
    adj = d <= r
    seen = np.zeros(d.shape[0], dtype=bool)
    blocks = []
    for start in range(d.shape[0]):
        if seen[start]:
            continue
        block = np.zeros(d.shape[0], dtype=bool)
        block[start] = True
        frontier = block.copy()
        while frontier.any():
            nxt = adj[frontier].any(axis=0) & ~block
            block |= nxt
            frontier = nxt
        seen |= block
        blocks.append(np.nonzero(block)[0].tolist())
    return blocks


def step_values(breaks, s):
    """A step rho at s: constant below the first breakpoint and beyond the last."""
    ss = np.array([b for b, _ in breaks])
    vs = np.array([v for _, v in breaks])
    return vs[np.clip(np.searchsorted(ss, s, side="right") - 1, 0, len(ss) - 1)]


def phi_exact(kind: str, params, t: float, r):
    """The infimum of 2u + r / max(rho(u + t), 1) over u >= 0 from the
    closed forms of each rho kind; ``r`` may be an array."""
    r = np.asarray(r, dtype=np.float64)
    if kind == "const":
        out = r / max(params[0], 1.0)
    elif kind == "exp":
        with np.errstate(divide="ignore"):
            out = np.where(r < 2.0 * np.exp(t), np.exp(-t) * r,
                           2.0 * (np.log(np.maximum(r, 1e-300) / 2.0) - t) + 2.0)
    elif kind == "affine":
        # below the crossing rho(u + t) = 1 the objective grows with u; above
        # it, it is convex with its stationary point where rho = sqrt(r M / 2)
        m, l = params
        u_lo = max(0.0, (1.0 - l) / m - t)
        u_star = np.maximum(u_lo, (np.sqrt(r * m / 2.0) - l) / m - t)
        out = np.minimum.reduce([2.0 * u + r / np.maximum(m * (u + t) + l, 1.0)
                                 for u in (0.0, u_lo, u_star)])
    else:
        # step / table: the objective grows on each constant piece, so the
        # minimum sits at u = 0 or at a breakpoint
        ss = np.array([s for s, _ in params])
        us = np.concatenate([[0.0], ss[ss > t] - t])
        rho = np.maximum(step_values(params, us + t), 1.0)
        out = (2.0 * us[:, None] + r.reshape(1, -1) / rho[:, None]).min(axis=0).reshape(r.shape)
    return float(out) if out.ndim == 0 else out


def rho_spec(literal: str):
    """(kind, params) of a rho literal as the cone jobs write them."""
    if literal == "exp":
        return "exp", ()
    if literal == "table":
        return "table", TABLE_ROWS
    kind, _, body = literal.partition(":")
    if kind == "const":
        return kind, (float(body),)
    if kind == "affine":
        return kind, tuple(float(v) for v in body.split(","))
    return kind, tuple(tuple(float(x) for x in chunk.split(":")) for chunk in body.split(","))


def chain_distances(d: np.ndarray, heights, start: int) -> np.ndarray:
    """Dense Dijkstra over Y x heights with the chain-oracle link weights."""
    n = d.shape[0]
    h = np.repeat(np.asarray(heights, dtype=np.float64), n)
    base = np.tile(np.arange(n), len(heights))
    top = np.maximum.outer(h, h)
    w = np.abs(np.subtract.outer(h, h)) + d[np.ix_(base, base)] / np.maximum(step_values(rho_spec(STEP_RHO)[1], top), 1.0)
    dist = np.full(len(h), np.inf)
    dist[start] = 0.0
    done = np.zeros(len(h), dtype=bool)
    for _ in range(len(h)):
        u = int(np.argmin(np.where(done, np.inf, dist)))
        done[u] = True
        dist = np.minimum(dist, dist[u] + w[u])
    return dist


# ---------------------------------------------------------------- job list


class InputSet:
    """Collects the input files and jobs of one workload."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.abspath(workdir)
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.group = ""  # the job group (ingest, certify, cone, emit) being built
        self.jobs: list[dict] = []
        os.makedirs(os.path.join(self.dir, "in"), exist_ok=True)
        os.makedirs(os.path.join(self.dir, "out"), exist_ok=True)

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, "in", name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def out(self, job_id: str) -> str:
        return os.path.join(self.dir, "out", job_id + ".txt")

    def cli(self, job_id: str, argv: list, expect: dict, counts: dict, out: str | None = None):
        argv = [str(a) for a in argv] + ["--format", "machine"]
        if out is not None:
            argv += ["--out", out]
        self.jobs.append({"id": job_id, "group": self.group, "cmd": argv[0], "argv": argv,
                          "out": out, "expect": expect, "counts": counts})

    def lib(self, job_id: str, fn: str, args: dict, expect: dict, counts: dict):
        self.jobs.append({"id": job_id, "group": self.group, "cmd": "lib:" + fn, "lib": args,
                          "out": None, "expect": expect, "counts": counts})

    def manifest(self) -> dict:
        order = self.rng.permutation(len(self.jobs)).tolist()
        jobs = [self.jobs[k] for k in order]
        totals: dict[str, float] = {}
        for job in jobs:
            for key, v in job["counts"].items():
                totals[key] = totals.get(key, 0) + v
        return {"workload": self.workload, "seed": self.seed, "jobs": jobs, "counts": totals}


def _family_counts(text: str, extra: dict | None = None) -> dict:
    counts = {"io.tokens": count_tokens(text)}
    counts.update(extra or {})
    return counts


# ingest ------------------------------------------------------------------

INGEST_SIZES = (100, 110, 120, 135, 150, 165, 180, 200, 220, 240, 300, 300, 300, 300, 300, 300)
# slot index -> planted defect: about one family in five carries one
INGEST_PLANTED = {2: "triangle", 7: "zero_distance", 12: "negative"}
INGEST_RADII = (2.0, 3.0, 5.0)


def build_ingest(b: InputSet) -> None:
    for slot, n in enumerate(INGEST_SIZES):
        metric = "l1" if slot % 2 == 0 else "linf"
        labels, d = integer_points(b.rng, n, metric)
        kind = INGEST_PLANTED.get(slot)
        if kind is not None:
            i, j = (int(v) for v in b.rng.choice(n, size=2, replace=False))
            if kind == "triangle":
                via = d[i] + d[:, j]
                via[[i, j]] = np.inf
                d[i, j] = d[j, i] = via.min() + 1.0
            elif kind == "zero_distance":
                d[i, j] = d[j, i] = 0.0
            else:
                d[i, j] = d[j, i] = -1.0
            viol = expected_violations(d, i, j)
        else:
            viol = {"total": 0}
        member = f"m{slot}"
        text = family_text(f"ingest{slot}", [(member, labels, d)])
        path = b.file(f"ingest{slot}.txt", text)
        b.cli(f"validate{slot}", ["validate", path],
              {"exit": 1 if kind else 0, "verdict": "fail" if kind else "pass",
               "check": "validate", "member": member, "violations": viol["total"],
               "kind": kind},
              _family_counts(text, {"metric.triangle_triples": n ** 3}))
        r = INGEST_RADII[slot % len(INGEST_RADII)]
        blocks = components(d, r)
        b.cli(f"components{slot}", ["components", path, "--r", r],
              {"exit": 0, "verdict": "pass", "check": "components", "member": member,
               "blocks": [[labels[i] for i in blk] for blk in blocks]},
              _family_counts(text, {"decomposition.edges": int(np.triu(d <= r, k=1).sum())}))


# certify -----------------------------------------------------------------


def _piece_pairs(cert) -> int:
    total = 0
    while cert is not None:
        for entry in cert.members:
            for group in entry.pieces:
                total += len(group) * (len(group) - 1) // 2
        cert = cert.child
    return total


def path_stages(family, radii, leaf_bound=None):
    """A certificate with one stage per radius over a family of integer
    paths: each stage splits every piece of the stage above into
    alternating blocks of r + 1 points, same-colour blocks r + 2 apart."""
    from coarsekit import decomposition as dec, generators as gen

    r = float(radii[0])
    members = tuple(gen.path_decomposition(m, radii[0]).members[0] for m in family.members)
    if len(radii) == 1:
        bound = r if leaf_bound is None else float(leaf_bound)
        return dec.DecompositionCertificate(family.id, r, 1, members, leaf_bound=bound)
    partial = dec.DecompositionCertificate(family.id, r, 1, members, leaf_bound=0.0)
    child = path_stages(dec.piece_family(partial, family), radii[1:], leaf_bound)
    return dec.DecompositionCertificate(family.id, r, 1, members, child=child)


def build_certify(b: InputSet) -> None:
    from coarsekit import covers, decomposition as dec, generators as gen, io, metric

    paths = {}
    for n in (150, 200, 250, 300, 400):
        space = gen.unit_path(n, f"path{n}")
        fam = metric.MetricFamily(f"paths{n}", (space,))
        text = family_text(fam.id, [(space.id, space.points, space.dist)])
        paths[n] = (fam, text, b.file(f"path{n}.txt", text))

    # check-cert: leaf and nested stages; planted: a claimed r the pieces
    # do not clear, or a leaf bound below the piece diameters
    cert_jobs = [(150, (1,), None), (200, (7, 1), None),
                 (200, (1,), "claimed-r"), (150, (7, 1), "leaf-bound")]
    for k, (n, radii, defect) in enumerate(cert_jobs):
        fam, text, fpath = paths[n]
        cert = path_stages(fam, radii, radii[-1] - 1 if defect == "leaf-bound" else None)
        if defect == "claimed-r":
            cert = dec.DecompositionCertificate(fam.id, cert.r + 4.0, 1, cert.members,
                                                leaf_bound=cert.leaf_bound)
        cpath = b.file(f"dcert{k}.txt", io.write_decomposition_certificate(cert, fam))
        b.cli(f"check-cert{k}", ["check-cert", fpath, cpath],
              {"exit": 1 if defect else 0, "verdict": "fail" if defect else "pass",
               "check": "verdict", "failing": {"claimed-r": ".disjoint", "leaf-bound": ".bound"}.get(defect),
               "stages": len(radii)},
              _family_counts(text, {"decomposition.piece_pairs": _piece_pairs(cert)}))

    # an-check at fine scales, with colours or with colours left to the
    # checker's greedy colouring (first fit alternates the blocks); planted:
    # one entry claims R = 4 x its blocks
    an_jobs = [(200, (1, 2), False, False), (250, (1, 2, 3), False, False),
               (400, (2, 3), False, False), (300, (1, 2, 3), True, True)]
    for k, (n, scales, coloured, planted) in enumerate(an_jobs):
        fam, text, fpath = paths[n]
        cert = gen.path_an_certificate(fam, scales)
        pairs = _an_pairs(cert)
        if not coloured:
            cert = _uncoloured(covers, cert)
        if planted:
            e = int(b.rng.integers(len(cert.entries)))
            entries = list(cert.entries)
            entries[e] = covers.ANEntry(4.0 * entries[e].scale, entries[e].covers)
            cert = covers.ANControlCertificate(cert.family_id, cert.n, cert.slope, cert.offset,
                                               tuple(entries))
        cpath = b.file(f"ancert{k}.txt", io.write_an_certificate(cert, fam))
        b.cli(f"an-check{k}", ["an-check", fpath, cpath],
              {"exit": 1 if planted else 0, "verdict": "fail" if planted else "pass",
               "check": "verdict", "failing": ".disjoint.color" if planted else None},
              _family_counts(text, {"covers.element_pairs": pairs}))
    # stars: first fit also reproduces the level-parity colouring, since a
    # segment meets only its ray neighbours and the central ball
    star_jobs = [((8, 20), True, False), ((8, 20), False, False), ((8, 20), True, True),
                 ((6, 30), True, False), ((6, 30), False, False)]
    for k, ((rays, length), coloured, planted) in enumerate(star_jobs, start=len(an_jobs)):
        star = gen.star_tree(rays, length, "star")
        sfam = metric.MetricFamily(f"stars{rays}x{length}", (star,))
        stext = family_text(sfam.id, [(star.id, star.points, star.dist)])
        spath = b.file(f"{sfam.id}.txt", stext)
        cert = gen.star_an_certificate(sfam, (1, 2, 4))
        pairs = _an_pairs(cert)
        if not coloured:
            cert = _uncoloured(covers, cert)
        if planted:  # mesh 2R - 2 exceeds M R with M = 1 at R = 4
            cert = covers.ANControlCertificate(cert.family_id, cert.n, 1.0, 0.0, cert.entries)
        cpath = b.file(f"ancert{k}.txt", io.write_an_certificate(cert, sfam))
        b.cli(f"an-check{k}", ["an-check", spath, cpath],
              {"exit": 1 if planted else 0, "verdict": "fail" if planted else "pass",
               "check": "verdict", "failing": ".mesh" if planted else None},
              _family_counts(stext, {"covers.element_pairs": pairs}))

    # cover-check; planted: one entry claims a Lebesgue number of 2r + 1
    scales = tuple(range(1, 9))
    cover_jobs = [(200, scales, False), (200, scales, True)]
    for k, (n, scales, planted) in enumerate(cover_jobs):
        fam, text, fpath = paths[n]
        cert = gen.path_asdim_certificate(fam, scales)
        if planted:
            e = int(b.rng.integers(len(cert.entries)))
            entries = list(cert.entries)
            entries[e] = covers.AsdimEntry(2.0 * entries[e].lam + 1.0, entries[e].mesh_bound,
                                           entries[e].covers)
            cert = covers.AsdimCertificate(cert.family_id, cert.n, tuple(entries))
        cpath = b.file(f"acert{k}.txt", io.write_asdim_certificate(cert, fam))
        b.cli(f"cover-check{k}", ["cover-check", fpath, cpath],
              {"exit": 1 if planted else 0, "verdict": "fail" if planted else "pass",
               "check": "verdict", "failing": ".lebesgue" if planted else None},
              _family_counts(text))

    # fibering witnesses and map envelopes on the grid-projection fixture
    for k, (g, planted) in enumerate(((12, False), (14, False), (12, True))):
        schedule = (1, 2, 4, 8, g - 1)
        src, tgt, fmap, wit = gen.grid_projection_fixture(g, schedule)
        src_text, tgt_text = io.write_family(src), io.write_family(tgt)
        sp = b.file(f"fsrc{k}.txt", src_text)
        tp = b.file(f"ftgt{k}.txt", tgt_text)
        mp = b.file(f"fmap{k}.txt", io.write_map(fmap, src, tgt))
        if planted:  # the schedule stops short of the target diameter
            wit = dec.FiberingWitness(wit.fmap, schedule[:-1], wit.inner, wit.target_certificate)
        wp = b.file(f"fwit{k}.txt", io.write_fibering_witness(wit, src, tgt))
        pairs = sum(_piece_pairs(c) for r, c in wit.inner if r in wit.radius_schedule)
        b.cli(f"check-fibering{k}", ["check-fibering", sp, tp, mp, wp],
              {"exit": 1 if planted else 0, "verdict": "fail" if planted else "pass",
               "check": "fibering", "failing": ".schedule" if planted else None,
               "radius": float(schedule[-2] if planted else schedule[-1])},
              {"io.tokens": count_tokens(src_text) + count_tokens(tgt_text),
               "decomposition.piece_pairs": pairs})
        if not planted:
            b.cli(f"map-analyze{k}", ["map-analyze", sp, tp, mp],
                  {"exit": 0, "verdict": "pass", "check": "map-analyze", "side": g},
                  {"io.tokens": count_tokens(src_text) + count_tokens(tgt_text)})


def _uncoloured(covers, cert):
    """The same AN certificate with its colours left to the checker."""
    entries = tuple(covers.ANEntry(e.scale, tuple((m, covers.Cover(c.space_id, c.elements))
                                                  for m, c in e.covers))
                    for e in cert.entries)
    return covers.ANControlCertificate(cert.family_id, cert.n, cert.slope, cert.offset, entries)


def _an_pairs(cert) -> int:
    """Same-colour element pairs whose R-separation the checker confirms."""
    total = 0
    for entry in cert.entries:
        for _, cover in entry.covers:
            for c in set(cover.colors):
                k = cover.colors.count(c)
                total += k * (k - 1) // 2
    return total


# cone --------------------------------------------------------------------


def build_cone(b: InputSet) -> None:
    labels, d = integer_points(b.rng, 30, "l1")
    ytext = family_text("base", [("Y", labels, d)])
    ypath = b.file("base.txt", ytext)
    table_path = b.file("rho_table.txt", "".join(f"{s!r} {v!r}\n" for s, v in TABLE_ROWS))
    # the CLI's default sample count, the size the ROADMAP times the suite at
    b.cli("phi-suite", ["phi-suite", "--samples", 1000, "--seed", b.seed, "--jobs", 2],
          {"exit": 0, "verdict": "pass", "check": "phi-suite", "properties": 63}, {})
    for literal in CONE_RHOS:
        arg = f"table:{table_path}" if literal == "table" else literal
        kind, params = rho_spec(literal)
        for k in range(2):
            t = float(np.round(b.rng.uniform(0.0, 6.0), 3))
            r = float(np.round(b.rng.uniform(0.5, 60.0), 3))
            b.cli(f"phi-{kind}{k}", ["phi", "--rho", arg, "--t", t, "--r", r],
                  {"exit": 0, "verdict": "pass", "check": "value",
                   "value": phi_exact(kind, params, t, r), "exact": kind in ("const", "step", "table")},
                  {})
            i, j = (int(v) for v in b.rng.choice(len(labels), size=2, replace=False))
            ha = float(np.round(b.rng.uniform(0.0, 6.0), 3))
            hb = float(np.round(b.rng.uniform(0.0, 6.0), 3))
            value = phi_exact(kind, params, max(ha, hb), float(d[i, j])) + abs(ha - hb)
            b.cli(f"cone-dist-{kind}{k}",
                  ["cone-dist", ypath, "--rho", arg, "--base-a", labels[i], "--height-a", ha,
                   "--base-b", labels[j], "--height-b", hb],
                  {"exit": 0, "verdict": "pass", "check": "value", "value": value,
                   "exact": kind in ("const", "step", "table")},
                  _family_counts(ytext))
    n = len(labels)
    for k, start in enumerate(b.rng.choice(n, size=2, replace=False).tolist()):  # at height 0
        dist = chain_distances(d, CONE_HEIGHTS, start)
        goal = int(np.argmax(dist))  # the farthest node: every node is settled first
        b.lib(f"chain_oracle{k}", "chain_oracle",
              {"family": ypath, "rho": STEP_RHO, "a": [start, 0.0],
               "b": [goal % n, CONE_HEIGHTS[goal // n]], "heights": list(CONE_HEIGHTS)},
              {"check": "chain", "value": float(dist[goal])}, {})
    for k, literal in enumerate((STEP_RHO, "exp")):
        b.lib(f"cone_sample{k}", "cone_sample",
              {"family": ypath, "rho": literal, "heights": list(CONE_HEIGHTS)},
              {"check": "cone-sample"},
              {"metric.triangle_triples": (len(labels) * len(CONE_HEIGHTS)) ** 3})


# emit --------------------------------------------------------------------


def build_emit(b: InputSet) -> None:
    # l^p products of small integer point sets: small reads, large writes
    products = (((15, 20), "1"), ((15, 20), "2"), ((15, 20), "inf"), ((18, 30), "2"), ((8, 8, 8), "1"))
    for k, (sizes, p) in enumerate(products):
        factors = [(f"F{f}", *integer_points(b.rng, n, "linf" if f % 2 else "l1"))
                   for f, n in enumerate(sizes)]
        text = family_text(f"factors{k}", factors)
        path = b.file(f"factors{k}.txt", text)
        b.cli(f"product{k}", ["product", path, "--p", p],
              {"exit": 0, "verdict": "pass", "check": "product", "p": p}, _family_counts(text),
              out=b.out(f"product{k}"))
    for k, sizes in enumerate(((120, 200),)):
        members = []
        for m, n in enumerate(sizes):
            lab, dd = integer_points(b.rng, n, "linf" if m else "l1")
            members.append((f"U{m}", lab, dd))
        text = family_text(f"cloud{k}", members)
        path = b.file(f"cloud{k}.txt", text)
        b.cli(f"ultrametric{k}", ["ultrametric", path],
              {"exit": 0, "verdict": "pass", "check": "ultrametric"}, _family_counts(text),
              out=b.out(f"ultrametric{k}"))
    # a cycle with a rotation action and a cover of wrapped arcs (lambda r, mesh <= 4r)
    for k, (m, order, scales) in enumerate(((240, 2, (1, 2, 3)), (240, 4, (1, 2, 3)))):
        labels = tuple(f"v{i}" for i in range(m))
        text = family_text(f"ring{k}", [("C", labels, cycle_dist(m))])
        fpath = b.file(f"ring{k}.txt", text)
        shift = m // order
        perms = {f"g{q}": tuple((i + q * shift) % m for i in range(m)) for q in range(order)}
        lines = [f"action rot{order}", "elements " + " ".join(perms)]
        for q in range(order):
            lines.append(f"compose g{q} : " + " ".join(f"g{(q + s) % order}" for s in range(order)))
        lines.append("member C")
        for name, perm in perms.items():
            lines.append(f"perm {name} : " + " ".join(map(str, perm)))
        apath = b.file(f"action{k}.txt", "\n".join(lines) + "\n")
        cert = ["asdim-certificate", f"family ring{k}", "n 1"]
        for r in scales:
            cert += ["entry", f"lambda {r}", f"bound {4 * r}", "member C"]
            for start in range(0, m, 2 * r):
                cert.append("element : " + " ".join(labels[(start + t) % m] for t in range(4 * r)))
        cpath = b.file(f"ringcert{k}.txt", "\n".join(cert) + "\n")
        q = m // order
        b.cli(f"quotient-cover{k}", ["quotient-cover", fpath, apath, cpath],
              {"exit": 0, "verdict": "pass", "check": "quotient", "m": m, "order": order,
               "scales": list(scales)},
              _family_counts(text, {"metric.triangle_triples": len(scales) * q ** 3}),
              out=b.out(f"quotient-cover{k}"))
    # decompose: greedy on paths and grids, exact on spaces of <= 16 points,
    # each found / none answer known by construction
    # isolated points 10 apart, then three points pairwise <= 2: at r = 2 and
    # bound 0 the three need three colours, and the exact search first tries
    # every colouring of the isolated points
    trap = np.array([10.0 * k for k in range(12)] + [130.0, 131.0, 132.0])
    spaces = {
        "path150": (tuple(str(i) for i in range(150)), path_dist(150)),
        "grid10x15": (tuple(f"{i},{j}" for i in range(10) for j in range(15)), grid_dist(10, 15)),
        "path16": (tuple(str(i) for i in range(16)), path_dist(16)),
        "grid4x4": (tuple(f"{i},{j}" for i in range(4) for j in range(4)), grid_dist(4, 4)),
        "cycle12": (tuple(f"v{i}" for i in range(12)), cycle_dist(12)),
        "cycle9": (tuple(f"v{i}" for i in range(9)), cycle_dist(9)),
        "trap14": (tuple(f"x{i}" for i in range(14)), np.abs(np.subtract.outer(trap[1:], trap[1:]))),
        "trap15": (tuple(f"x{i}" for i in range(15)), np.abs(np.subtract.outer(trap, trap))),
    }
    decompose_jobs = [
        # (space, mode, r, n, bound, found)
        ("path150", "greedy", 3, 1, 6, True),    # blocks of r + 1, same colour r + 2 apart
        ("path150", "greedy", 2, 1, 0, False),   # singletons: 0, 1, 2 need three colours
        ("grid10x15", "greedy", 1, 1, 0, True),  # first fit in row-major order is the checkerboard
        ("grid10x15", "greedy", 2, 1, 0, False),  # (0,0), (0,1), (1,0) need three colours
        ("path16", "exact", 2, 1, 2, True),
        ("path16", "exact", 2, 1, 0, False),
        ("path16", "exact", 3, 2, 0, False),     # 0..3 pairwise <= 3 need four colours
        ("grid4x4", "exact", 1, 1, 0, True),
        ("grid4x4", "exact", 2, 1, 0, False),
        ("cycle12", "exact", 1, 1, 1, True),     # six adjacent pairs, alternating
        ("cycle9", "exact", 1, 1, 0, False),     # an odd cycle is not 2-colourable
        ("trap14", "exact", 2, 1, 0, False),
        ("trap15", "exact", 2, 1, 0, False),
        ("trap15", "exact", 2, 2, 0, True),
    ]
    paths = {}
    for name, (labels, dd) in spaces.items():
        text = family_text(name, [(name, labels, dd)])
        paths[name] = (b.file(f"space-{name}.txt", text), text)
    for k, (name, mode, r, n, bound, found) in enumerate(decompose_jobs):
        fpath, text = paths[name]
        b.cli(f"decompose{k}", ["decompose", fpath, "--r", r, "--n", n, "--bound", bound, "--" + mode],
              {"exit": 0 if found else 1, "verdict": "pass" if found else "fail", "check": "decompose",
               "member": name, "status": "found" if found else ("none" if mode == "exact" else "unknown"),
               "r": r, "n": n, "bound": bound},
              _family_counts(text, {"decomposition.search_attempts": 1,
                                    "decomposition.search_found": int(found)}),
              out=b.out(f"decompose{k}"))


JOB_GROUPS = {
    "ingest-certify": (("ingest", build_ingest), ("certify", build_certify)),
    "cone-emit": (("cone", build_cone), ("emit", build_emit)),
}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the inputs of one workload under ``workdir`` and return its
    manifest (also written as ``workdir/manifest.json``)."""
    b = InputSet(workload, seed, workdir)
    for group, build in JOB_GROUPS[workload]:
        b.group = group
        build(b)
    manifest = b.manifest()
    with open(os.path.join(b.dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--src", required=True, help="directory that holds the coarsekit package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    generate(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
