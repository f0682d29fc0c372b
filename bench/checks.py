"""Known-answer checks of one job's output.

Every check compares the program's output with what the construction fixed
in the manifest, and with numpy recomputations made here: product distances,
quotient minima, minimax ultrametrics, decomposition separation and chain
shortest paths.  Each emitted document must also round-trip through its
parser and writer byte for byte.  A check returns ``None`` when the output
is right, else a one-line reason.
"""

from __future__ import annotations

import hashlib

import numpy as np

from workloads import phi_exact, rho_spec


def machine_pairs(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def read_family(text: str) -> list[tuple[str, tuple[str, ...], np.ndarray]]:
    """The members of a family document, read independently of the
    program's parser."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    members, pos = [], 1
    while pos < len(rows):
        member_id, labels = rows[pos][1], tuple(rows[pos + 1][1:])
        n = len(labels)
        d = np.zeros((n, n))
        for i in range(1, n):
            d[i, :i] = [float(v) for v in rows[pos + 1 + i]]
        members.append((member_id, labels, d + d.T))
        pos += n + 1
    return members


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fmt_height(h: float) -> str:
    return str(int(h)) if h == int(h) else repr(h)


# ------------------------------------------------------------ per command


def _validate(job, kv, _):
    e = job["expect"]
    got = kv.get(f"member.{e['member']}.violations")
    if got != str(e["violations"]):
        return f"violations {got}, expected {e['violations']}"
    if e["kind"] and not any(k.startswith(f"member.{e['member']}.violation.") and v.startswith(e["kind"] + "@")
                             for k, v in kv.items()):
        return f"no {e['kind']} violation reported"
    return None


def _components(job, kv, _):
    e = job["expect"]
    prefix = f"member.{e['member']}.block."
    got = sorted(tuple(v.split(",")) for k, v in kv.items() if k.startswith(prefix))
    want = sorted(tuple(b) for b in e["blocks"])
    if kv.get(f"member.{e['member']}.blocks") != str(len(want)) or got != want:
        return f"{len(got)} blocks differ from the {len(want)} expected"
    return None


def _verdict_items(job, kv, _):
    e = job["expect"]
    if "stages" in e and kv.get("stages") != str(e["stages"]):
        return f"stages {kv.get('stages')}, expected {e['stages']}"
    failing = e.get("failing")
    checks = {k: v for k, v in kv.items() if k.startswith("check.") and not k.endswith(".witness")}
    if failing is None:
        bad = [k for k, v in checks.items() if v != "pass"]
        return f"unexpected failures {bad[:3]}" if bad else None
    if not any(v == "fail" and failing in k for k, v in checks.items()):
        return f"no failing check matches {failing!r}"
    return None


def _fibering(job, kv, report):
    err = _verdict_items(job, kv, report)
    if err:
        return err
    want = job["expect"]["radius"]
    got = float(kv.get("largest-certified-radius", "nan"))
    return None if got == want else f"largest certified radius {got}, expected {want}"


def _map_analyze(job, kv, _):
    top = job["expect"]["side"] - 1  # grid -> first coordinate: control min(s, top)
    k = 0
    while f"control.{k}.s" in kv:
        s = float(kv[f"control.{k}.s"])
        if float(kv[f"control.{k}.value"]) != min(s, top):
            return f"control envelope at {s}: {kv[f'control.{k}.value']}"
        if float(kv[f"properness.{k}.value"]) != max(0.0, s - top):
            return f"properness envelope at {s}: {kv[f'properness.{k}.value']}"
        k += 1
    if k != 2 * top + 1:
        return f"{k} envelope breakpoints, expected {2 * top + 1}"
    if (kv.get("coarsely-onto"), kv.get("coarsely-onto.C"), kv.get("properness.flag")) != ("true", "0", "consistent"):
        return "coarse surjectivity or properness flag differs"
    return None


def _value(job, kv, _):
    e = job["expect"]
    got = float(kv.get("value", "nan"))
    tol = 1e-12 * max(1.0, abs(e["value"])) if e["exact"] else 1e-6
    if not abs(got - e["value"]) <= tol:
        return f"value {got!r}, expected {e['value']!r}"
    if "closed-form" in kv and not abs(float(kv["closed-form"]) - e["value"]) <= 1e-12 * max(1.0, abs(e["value"])):
        return f"closed form {kv['closed-form']}, expected {e['value']!r}"
    return None


def _phi_suite(job, kv, _):
    props = {k: v for k, v in kv.items() if k.startswith("property.")}
    passed = sum(v == "pass" for v in props.values())
    want = job["expect"]["properties"]
    return None if passed == want == len(props) else f"{passed} of {len(props)} properties pass, expected {want}"


def _product(job, kv, doc):
    from coarsekit import io

    fam = io.parse_family(doc)
    if io.write_family(fam) != doc:
        return "document does not round-trip"
    m = fam.members[0]
    factors = read_family(_read(job["argv"][1]))
    sizes = [len(labels) for _, labels, _ in factors]
    combos = np.indices(sizes).reshape(len(sizes), -1)  # row-major: last factor fastest
    if m.points != tuple(",".join(f[1][i] for f, i in zip(factors, c)) for c in combos.T.tolist()):
        return "product labels differ"
    stack = np.stack([d[np.ix_(c, c)] for (_, _, d), c in zip(factors, combos)])
    p = job["expect"]["p"]
    if p == "1":
        ok = np.array_equal(m.dist, stack.sum(axis=0))
    elif p == "inf":
        ok = np.array_equal(m.dist, stack.max(axis=0))
    else:
        ok = np.allclose(m.dist, np.sqrt((stack ** 2).sum(axis=0)), rtol=1e-12, atol=0.0)
    return None if ok else f"l^{p} product distances differ from the recomputation"


def minimax(d: np.ndarray) -> np.ndarray:
    """Minimax-path distances, floored at 1: Prim's spanning tree, then
    single-linkage merges along its edges in weight order."""
    n = d.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    via = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges.append((float(best[u]), int(via[u]), u))
        in_tree[u] = True
        closer = d[u] < best
        best = np.where(closer, d[u], best)
        via = np.where(closer, u, via)
    out = np.zeros((n, n))
    label = np.arange(n)
    for w, a, b in sorted(edges):
        la, lb = label[a], label[b]
        ia, ib = label == la, label == lb
        out[np.ix_(ia, ib)] = out[np.ix_(ib, ia)] = max(1.0, w)
        label[ib] = la
    return out


def _ultrametric(job, kv, doc):
    from coarsekit import io

    fam = io.parse_family(doc)
    if io.write_family(fam) != doc:
        return "document does not round-trip"
    members = read_family(_read(job["argv"][1]))
    for (mid, labels, d), m in zip(members, fam.members):
        if m.points != labels or not np.array_equal(m.dist, minimax(d)):
            return f"ultrametric of {mid} differs from the recomputation"
    return None if len(fam.members) == len(members) else "member count differs"


def _quotient(job, kv, doc):
    from coarsekit import io

    e = job["expect"]
    fam_text, sep, cert_text = doc.partition("asdim-certificate\n")
    fam = io.parse_family(fam_text)
    cert = io.parse_asdim_certificate(sep + cert_text, fam)
    if io.write_family(fam) + io.write_asdim_certificate(cert, fam) != doc:
        return "quotient document does not round-trip"
    m, order = e["m"], e["order"]
    q = m // order
    member = fam.members[0]
    if member.points != tuple(f"F·v{i}" for i in range(q)):
        return "quotient labels differ"
    i = np.arange(q)
    gap = np.abs(i[:, None, None] - (i[None, :, None] + q * np.arange(order)[None, None, :]) % m)
    want = np.minimum(gap, m - gap).min(axis=2).astype(np.float64)
    if not np.array_equal(member.dist, want):
        return "quotient distances differ from the orbit minima"
    for entry, r in zip(cert.entries, e["scales"]):
        got = [el.indices for el in entry.covers[0][1].elements]
        arcs = [tuple(sorted({(s + t) % m % q for t in range(4 * r)})) for s in range(0, m, 2 * r)]
        if got != arcs:
            return f"pushed cover at scale {r} differs from the arc images"
    bad = [k for k, v in kv.items() if (k.startswith("pushed.") or k.endswith(".guarantees")) and v != "pass"]
    return f"failing guarantees {bad[:3]}" if bad else None


def _decompose(job, kv, doc):
    from coarsekit import io

    e = job["expect"]
    status = kv.get(f"member.{e['member']}.result")
    if status != e["status"]:
        return f"status {status}, expected {e['status']}"
    if doc is None:
        return None if e["status"] != "found" else "no certificate written"
    fam = io.parse_family(_read(job["argv"][1]))
    cert = io.parse_decomposition_certificate(doc, fam)
    if io.write_decomposition_certificate(cert, fam) != doc:
        return "certificate does not round-trip"
    d = fam.members[0].dist
    n = d.shape[0]
    if cert.n != e["n"] or cert.r != e["r"] or cert.leaf_bound != e["bound"]:
        return "certificate parameters differ from the request"
    piece = np.full(n, -1)
    color = np.full(n, -1)
    k = 0
    for c, group in enumerate(cert.members[0].pieces):
        for p in group:
            idx = np.array(p.indices)
            if (piece[idx] >= 0).any():
                return "pieces overlap"
            piece[idx], color[idx] = k, c
            k += 1
            if d[np.ix_(idx, idx)].max() > e["bound"]:
                return "piece diameter above the bound"
    if (piece < 0).any():
        return "pieces do not cover the space"
    same = (color[:, None] == color[None, :]) & (piece[:, None] != piece[None, :])
    if same.any() and d[same].min() <= e["r"]:
        return "same-colour pieces not r-disjoint"
    return None


CLI_CHECKS = {
    "validate": _validate, "components": _components, "verdict": _verdict_items,
    "fibering": _fibering, "map-analyze": _map_analyze, "value": _value,
    "phi-suite": _phi_suite, "product": _product, "ultrametric": _ultrametric,
    "quotient": _quotient, "decompose": _decompose,
}


def check_cli(job, code: int, report: str, doc_path: str | None) -> str | None:
    """Check a CLI job; ``doc_path`` holds the document it wrote, if any."""
    e = job["expect"]
    if code != e["exit"]:
        return f"exit {code}, expected {e['exit']}"
    kv = machine_pairs(report)
    if kv.get("verdict") != e["verdict"]:
        return f"verdict {kv.get('verdict')}, expected {e['verdict']}"
    doc = None
    if doc_path is not None:
        doc = _read(doc_path)
        if hashlib.sha256(doc.encode("utf-8")).hexdigest() != kv["document.sha256"]:
            return "written document differs from the reported digest"
    return CLI_CHECKS[e["check"]](job, kv, doc)


def check_lib(job, value) -> str | None:
    e = job["expect"]
    args = job["lib"]
    if e["check"] == "chain":
        return None if abs(value - e["value"]) <= 1e-9 * max(1.0, e["value"]) else \
            f"chain oracle {value!r}, expected {e['value']!r}"
    (_, labels, d), = read_family(_read(args["family"]))
    kind, params = rho_spec(args["rho"])
    hs = sorted(args["heights"])
    want_labels = tuple(f"{p}@{_fmt_height(h)}" for h in hs for p in labels)
    n = len(labels)
    h = np.repeat(np.array(hs), n)
    base = np.tile(np.arange(n), len(hs))
    want = np.zeros((len(h), len(h)))
    for top in hs:  # phi at the larger height of each pair
        rows = h == top
        mask = rows[:, None] & (h[None, :] <= top)
        mask |= mask.T
        sel = np.nonzero(mask)
        want[sel] = phi_exact(kind, params, top, d[base[sel[0]], base[sel[1]]])
    want += np.abs(np.subtract.outer(h, h))
    np.fill_diagonal(want, 0.0)
    if value.points != want_labels:
        return "cone sample labels differ"
    if not np.allclose(value.dist, want, rtol=1e-12, atol=1e-12):
        return "cone sample distances differ from the recomputation"
    return None


def output_digest(result) -> str:
    """What must repeat byte for byte when a job runs again."""
    if isinstance(result, str):
        return result
    if isinstance(result, float):
        return repr(result)
    return repr(result.points) + hashlib.sha256(result.dist.tobytes()).hexdigest()

