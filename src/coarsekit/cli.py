"""The coarsekit command line: one subcommand per operation, deterministic
reports, and exit codes 0 (all verdicts pass), 1 (a verdict failed or a
construction was refused), 2 (parse or structural error).

Reports echo semantic arguments only; execution flags (--jobs, --format)
never appear in machine output.  Every command runs serially: --jobs is
accepted and has no effect.  There is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import covers as covers_mod
from . import decomposition as dec_mod
from . import io as io_mod
from . import maps as maps_mod
from . import metric as metric_mod
from .cone import ConePoint, cone_distance, parse_rho, phi
from .errors import CoarsekitError, ParseError, PreconditionError, StructuralError
from .phisuite import run_phi_suite, standard_rho_family
from .report import Report, Verdict, fmt_num

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CoarsekitError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CoarsekitError(f"cannot read {path!r}: not UTF-8 text ({exc.reason})") from None


def _load_family(path: str) -> metric_mod.MetricFamily:
    return io_mod.parse_family(_read(path))


def _rho_from_arg(literal: str):
    return parse_rho(literal, table_loader=lambda p: io_mod.parse_rho_table(_read(p)))


def _finish_verdict(report: Report, v: Verdict) -> int:
    report.add("verdict", "pass" if v.passed else "fail",
               "PASS" if v.passed else f"FAIL ({len(v.failures)} failing check(s))")
    return EXIT_PASS if v.passed else EXIT_FAIL


def _emit_document(report: Report, args, text: str) -> None:
    import hashlib  # only the emitting subcommands need it: kept off the import path

    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CoarsekitError(f"cannot write {args.out!r}: {exc.strerror}") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    report.add("document.sha256", digest)
    report.add("document.lines", text.count("\n"))
    if args.format == "text":
        report.text(text.rstrip("\n"))


def cmd_validate(args, report: Report) -> int:
    fam = _load_family(args.family)
    report.add("family", fam.id)
    ok = True
    for m in fam.members:
        rep = metric_mod.validate_metric(m, tol=args.tolerance)
        report.add(f"member.{m.id}.violations", len(rep.violations))
        if rep.ok:
            report.text(f"{m.id}: ok ({m.n} points)")
        else:
            ok = False
            for k, v in enumerate(rep.violations):
                wit = ",".join(m.points[i] for i in v.witness)
                report.add(f"member.{m.id}.violation.{k}", f"{v.kind}@{wit}")
                report.text(f"{m.id}: {v.kind} at ({wit}): {v.detail}")
    report.add("verdict", "pass" if ok else "fail", "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_components(args, report: Report) -> int:
    fam = _load_family(args.family)
    report.add("family", fam.id)
    report.add("r", args.r)
    for m in fam.members:
        part = dec_mod.r_components(m, args.r)
        report.add(f"member.{m.id}.blocks", len(part.blocks))
        for k, blk in enumerate(part.blocks):
            labels = " ".join(m.points[i] for i in blk)
            report.add(f"member.{m.id}.block.{k}", labels.replace(" ", ","))
            report.text(f"{m.id} block {k}: {labels}")
    report.add("verdict", "pass", "PASS")
    return EXIT_PASS


def cmd_cover_check(args, report: Report) -> int:
    fam = _load_family(args.family)
    cert = io_mod.parse_asdim_certificate(_read(args.certificate), fam)
    report.add("family", fam.id)
    report.add("n", cert.n)
    v = covers_mod.check_asdim_certificate(cert, fam, args.tolerance)
    report.extend_verdict("check", v)
    return _finish_verdict(report, v)


def cmd_an_check(args, report: Report) -> int:
    fam = _load_family(args.family)
    cert = io_mod.parse_an_certificate(_read(args.certificate), fam)
    report.add("family", fam.id)
    report.add("n", cert.n)
    report.add("M", cert.slope)
    report.add("b", cert.offset)
    v = covers_mod.check_an_control(cert, fam, args.tolerance)
    report.extend_verdict("check", v)
    return _finish_verdict(report, v)


def cmd_quotient_cover(args, report: Report) -> int:
    fam = _load_family(args.family)
    action_doc = io_mod.parse_action(_read(args.action), fam)
    cert = io_mod.parse_asdim_certificate(_read(args.certificate), fam)
    metric_mod.check_certificate_family(cert.family_id, fam)
    report.add("family", fam.id)
    quotients: dict[str, tuple] = {}  # member id -> (quotient, orbit map), in order of first use
    out_entries = []
    ok = True
    for k, entry in enumerate(cert.entries):
        out_covers = []
        for member_id, cover in metric_mod.member_lookup(fam, entry.covers).items():
            space = fam.member(member_id)
            action = action_doc.for_member(member_id)
            in_counts, in_leb, in_diams = covers_mod.cover_stats(cover, space)
            if member_id not in quotients:
                quotients[member_id] = metric_mod.quotient_with_map(action, space)
            qspace, orbit_of = quotients[member_id]
            qcover = covers_mod.image_cover(cover, qspace, orbit_of)
            out_counts, out_leb, out_diams = covers_mod.cover_stats(qcover, qspace)
            out_covers.append((qspace.id, qcover))
            out_dim = int(out_counts.max()) - 1
            bound = action.order * int(in_counts.max()) - 1
            in_mesh, out_mesh = max(in_diams), max(out_diams)
            good = out_dim <= bound and out_leb >= min(in_leb, entry.lam) and out_mesh <= in_mesh
            ok = ok and good
            path = f"entry{k}.{member_id}"
            report.add(f"{path}.dimension", out_dim)
            report.add(f"{path}.dimension-bound", bound)
            report.add(f"{path}.lebesgue", out_leb)
            report.add(f"{path}.mesh", out_mesh)
            report.add(f"{path}.guarantees", "pass" if good else "fail")
            report.text(
                f"entry {k} {member_id}: dim {out_dim} <= {bound}, "
                f"Lebesgue {fmt_num(out_leb)} >= {fmt_num(min(in_leb, entry.lam))}, "
                f"mesh {fmt_num(out_mesh)} <= {fmt_num(in_mesh)}: "
                + ("ok" if good else "VIOLATED")
            )
        out_entries.append(covers_mod.AsdimEntry(entry.lam, entry.mesh_bound, tuple(out_covers)))
    for m in fam.members:  # a member no entry covers still has its quotient
        if m.id not in quotients:
            quotients[m.id] = metric_mod.quotient_with_map(action_doc.for_member(m.id), m)
    q_family = metric_mod.MetricFamily(f"{fam.id}/q", tuple(q for q, _ in quotients.values()))
    new_n = len(action_doc.elements) * (cert.n + 1) - 1
    out_cert = covers_mod.AsdimCertificate(q_family.id, new_n, tuple(out_entries))
    text = io_mod.write_family(q_family) + io_mod.write_asdim_certificate(out_cert, q_family)
    _emit_document(report, args, text)
    v = covers_mod.check_asdim_certificate(out_cert, q_family, args.tolerance)
    report.extend_verdict("pushed", v)
    combined = ok and v.passed
    report.add("verdict", "pass" if combined else "fail", "PASS" if combined else "FAIL")
    return EXIT_PASS if combined else EXIT_FAIL


def cmd_product(args, report: Report) -> int:
    fam = _load_family(args.family)
    p = float(args.p)
    prod = metric_mod.product(list(fam.members), p)
    out_fam = metric_mod.MetricFamily(f"{fam.id}|product", (prod,))
    report.add("family", fam.id)
    report.add("p", args.p)
    report.add("points", prod.n)
    report.add("diameter", prod.diameter())
    _emit_document(report, args, io_mod.write_family(out_fam))
    report.add("verdict", "pass")
    return EXIT_PASS


def cmd_decompose(args, report: Report) -> int:
    fam = _load_family(args.family)
    report.add("family", fam.id)
    report.add("r", args.r)
    report.add("n", args.n)
    report.add("bound", args.bound)
    report.add("mode", args.mode)
    ok = True
    member_entries = []
    for m in fam.members:
        result = dec_mod.search_decomposition(m, args.r, args.n, args.bound, mode=args.mode)
        report.add(f"member.{m.id}.result", result.status)
        report.text(f"{m.id}: {result.status}")
        if result.certificate is None:
            ok = False
        else:
            member_entries.extend(result.certificate.members)
    if ok:
        cert = dec_mod.DecompositionCertificate(
            fam.id, float(args.r), args.n, tuple(member_entries), leaf_bound=float(args.bound)
        )
        _emit_document(report, args, io_mod.write_decomposition_certificate(cert, fam))
    report.add("verdict", "pass" if ok else "fail", "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_check_cert(args, report: Report) -> int:
    fam = _load_family(args.family)
    cert = io_mod.parse_decomposition_certificate(_read(args.certificate), fam)
    report.add("family", fam.id)
    report.add("r", cert.r)
    report.add("n", cert.n)
    report.add("stages", cert.depth())
    v = dec_mod.check_decomposition(cert, fam, args.tolerance)
    report.extend_verdict("check", v)
    return _finish_verdict(report, v)


def cmd_check_fibering(args, report: Report) -> int:
    src = _load_family(args.source)
    tgt = _load_family(args.target)
    fmap = io_mod.parse_map(_read(args.map), src, tgt)
    witness = io_mod.parse_fibering_witness(_read(args.witness), src, tgt, fmap)
    report.add("source", src.id)
    report.add("target", tgt.id)
    v = dec_mod.check_fibering_witness(witness, src, tgt, args.tolerance)
    best = dec_mod.largest_certified_radius(v)
    report.add("largest-certified-radius", best)
    report.text(f"largest certified radius: {fmt_num(best)}")
    report.extend_verdict("check", v)
    return _finish_verdict(report, v)


def cmd_map_analyze(args, report: Report) -> int:
    src = _load_family(args.source)
    tgt = _load_family(args.target)
    fmap = io_mod.parse_map(_read(args.map), src, tgt)
    report.add("source", src.id)
    report.add("target", tgt.id)
    control = maps_mod.control_envelope(fmap, src, tgt)
    for k, (s, v) in enumerate(control.breakpoints):
        report.add(f"control.{k}.s", s)
        report.add(f"control.{k}.value", v)
    report.text("control envelope: " + " ".join(f"({fmt_num(s)},{fmt_num(v)})" for s, v in control.breakpoints))
    proper = maps_mod.properness_envelope(fmap, src, tgt)
    for k, (s, v) in enumerate(proper.breakpoints):
        report.add(f"properness.{k}.s", s)
        report.add(f"properness.{k}.value", v)
    flagged = maps_mod.looks_non_proper(proper)
    scale = proper.max_scale
    report.add("properness.flag", "non-proper-looking" if flagged else "consistent")
    if flagged:
        report.text("lower envelope is non-proper-looking (flat over the top half)")
    else:
        report.text(f"consistent with effectively proper at scales up to {fmt_num(scale)}")
    onto, c = maps_mod.is_coarsely_onto(fmap, src, tgt)
    report.add("coarsely-onto", onto)
    report.add("coarsely-onto.C", c)
    report.text(f"coarsely onto: {onto} (C = {fmt_num(c)})")
    report.add("verdict", "pass", "PASS")
    return EXIT_PASS


def cmd_phi(args, report: Report) -> int:
    rho = _rho_from_arg(args.rho)
    value = phi(rho, args.t, args.r)
    report.add("rho", rho.literal())
    report.add("t", args.t)
    report.add("r", args.r)
    report.add("value", value, f"phi_{fmt_num(args.t)}({fmt_num(args.r)}) = {repr(float(value))}")
    if rho.kind == "exp":  # phi_closed_exp is this same value
        report.add("closed-form", value)
    report.add("verdict", "pass")
    return EXIT_PASS


def cmd_phi_suite(args, report: Report) -> int:
    if args.rho:
        rhos = [_rho_from_arg(lit) for lit in args.rho]
    else:
        rhos = standard_rho_family()
    report.add("samples", args.samples)
    report.add("seed", args.seed)
    v = run_phi_suite(rhos, samples=args.samples, seed=args.seed)
    report.extend_verdict("property", v)
    for item in v.items:
        report.text(("PASS " if item.passed else "FAIL ") + item.path)
    return _finish_verdict(report, v)


def cmd_cone_dist(args, report: Report) -> int:
    rho = _rho_from_arg(args.rho)
    fam = _load_family(args.family)
    member = fam.member(args.member) if args.member else fam.members[0]
    a = ConePoint(member.index(args.base_a), args.height_a)
    b = ConePoint(member.index(args.base_b), args.height_b)
    value = cone_distance(rho, member, a, b)
    report.add("rho", rho.literal())
    report.add("member", member.id)
    report.add("a", f"{args.base_a}@{fmt_num(args.height_a)}")
    report.add("b", f"{args.base_b}@{fmt_num(args.height_b)}")
    report.add("value", value, f"d_C = {repr(float(value))}")
    report.add("verdict", "pass")
    return EXIT_PASS


def cmd_ultrametric(args, report: Report) -> int:
    from .constructions import minimax_ultrametric

    fam = _load_family(args.family)
    report.add("family", fam.id)
    members = tuple(
        metric_mod.FiniteMetricSpace(m.id, u.points, u.dist)
        for m in fam.members
        for u in (minimax_ultrametric(m),)
    )
    out_fam = metric_mod.MetricFamily(f"{fam.id}|ultrametric", members)
    _emit_document(report, args, io_mod.write_family(out_fam))
    report.add("verdict", "pass")
    return EXIT_PASS


def cmd_ray_tree(args, report: Report) -> int:
    from .constructions import ray_tree_embed, shell_sequence

    fam = _load_family(args.family)
    member = fam.member(args.member) if args.member else fam.members[0]
    pieces_doc = io_mod.parse_subsets(_read(args.pieces), fam)
    shells_doc = io_mod.parse_subsets(_read(args.shells), fam)
    pieces = [ps for mid, _, ps in pieces_doc if mid == member.id]
    seeds = [ps for mid, _, ps in shells_doc if mid == member.id]
    report.add("family", fam.id)
    report.add("member", member.id)
    shells, covers_all = shell_sequence(member, seeds)
    report.add("shells", len(shells))
    report.add("shells-cover-space", covers_all)
    if not covers_all:
        report.text("shell union does not reach the whole space")
        report.add("verdict", "fail", "FAIL")
        return EXIT_FAIL
    tree, fmap = ray_tree_embed(member, pieces, shells)
    report.add("rays", len(tree.ray_ids))
    report.add("truncation-depth", tree.depth)
    tree_fam = metric_mod.MetricFamily(tree.space.id, (tree.space,))
    text = io_mod.write_family(tree_fam) + io_mod.write_map(
        fmap, metric_mod.MetricFamily(member.id, (member,)), tree_fam
    )
    _emit_document(report, args, text)
    report.add("verdict", "pass", "PASS")
    return EXIT_PASS


class UsageError(CoarsekitError):
    """A command line argparse rejects; the message is its usage and error text."""


def number(text: str) -> float:
    """A float option: any literal ``float`` reads, ``inf`` included, but
    not nan; argparse reports the ValueError as a usage error."""
    value = float(text)
    if math.isnan(value):
        raise ValueError(text)
    return value


def tolerance(text: str) -> float:
    """The ``--tolerance`` number, which is also not below 0; a malformed
    literal gets the same message as any other number option."""
    try:
        value = number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance below 0: {text!r}")
    return value


def exponent(text: str) -> str:
    """The ``--p`` number, kept as typed so that the report echoes it."""
    number(text)
    return text


def count(text: str) -> int:
    """A non-negative integer option."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive_count(text: str) -> int:
    """The ``--samples`` count, which is also not 0; a malformed literal
    gets the same message as any other count option."""
    try:
        value = count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count value: {text!r}") from None
    if value == 0:
        raise argparse.ArgumentTypeError(f"count below 1: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes any argument with a leading minus but -\d+ and
        # -\d*\.\d+ for an option; every negative literal ``number`` accepts
        # (-1e3, -1_000, -inf) starts like this and so is read as a value
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)

    def error(self, message: str):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``run`` in the process (``parse_args`` keeps no state between
    calls)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="report format (machine is line-oriented key=value)")
    common.add_argument("--tolerance", type=tolerance, default=metric_mod.DEFAULT_TOL,
                        help="absolute tolerance for certificate comparisons")
    common.add_argument("--seed", type=count, default=0, help="seed for randomized suites")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; every command runs serially")
    common.add_argument("--out", default=None, help="write emitted documents to this file")

    parser = _Parser(prog="coarsekit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="check metric axioms of a family")
    p.add_argument("family")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("components", parents=[common], help="components at scale r")
    p.add_argument("family")
    p.add_argument("--r", type=number, required=True)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("cover-check", parents=[common], help="check a staged cover certificate")
    p.add_argument("family")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_cover_check)

    p = sub.add_parser("an-check", parents=[common], help="check an affine control certificate")
    p.add_argument("family")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_an_check)

    p = sub.add_parser("quotient-cover", parents=[common],
                       help="push a cover certificate to a finite quotient")
    p.add_argument("family")
    p.add_argument("action")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_quotient_cover)

    p = sub.add_parser("product", parents=[common], help="l^p product of the family members")
    p.add_argument("family")
    p.add_argument("--p", type=exponent, default="2")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("decompose", parents=[common], help="search for a decomposition")
    p.add_argument("family")
    p.add_argument("--r", type=number, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=number, required=True)
    p.add_argument("--exact", dest="mode", action="store_const", const="exact", default="exact")
    p.add_argument("--greedy", dest="mode", action="store_const", const="greedy")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("check-cert", parents=[common], help="check a decomposition certificate")
    p.add_argument("family")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_check_cert)

    p = sub.add_parser("check-fibering", parents=[common], help="check a fibering witness")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("witness")
    p.set_defaults(fn=cmd_check_fibering)

    p = sub.add_parser("map-analyze", parents=[common], help="envelopes and surjectivity of a map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.set_defaults(fn=cmd_map_analyze)

    p = sub.add_parser("phi", parents=[common], help="evaluate the height-distortion function")
    p.add_argument("--rho", required=True)
    p.add_argument("--t", type=number, required=True)
    p.add_argument("--r", type=number, required=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("phi-suite", parents=[common], help="randomized phi property suite")
    p.add_argument("--rho", action="append", default=None)
    p.add_argument("--samples", type=positive_count, default=1000)
    p.set_defaults(fn=cmd_phi_suite)

    p = sub.add_parser("cone-dist", parents=[common], help="cone distance between two cone points")
    p.add_argument("family")
    p.add_argument("--rho", required=True)
    p.add_argument("--member", default=None)
    p.add_argument("--base-a", required=True)
    p.add_argument("--height-a", type=number, required=True)
    p.add_argument("--base-b", required=True)
    p.add_argument("--height-b", type=number, required=True)
    p.set_defaults(fn=cmd_cone_dist)

    p = sub.add_parser("ultrametric", parents=[common], help="minimax-path ultrametric of a family")
    p.add_argument("family")
    p.set_defaults(fn=cmd_ultrametric)

    p = sub.add_parser("ray-tree", parents=[common], help="ray-tree embedding from pieces and shells")
    p.add_argument("family")
    p.add_argument("pieces")
    p.add_argument("shells")
    p.add_argument("--member", default=None)
    p.set_defaults(fn=cmd_ray_tree)

    return parser


def run(argv) -> tuple[str, int]:
    """Run one invocation; returns (rendered report, exit code).  A command
    line argparse rejects returns its usage and error text with exit 2."""
    report = Report()
    try:
        args = build_parser().parse_args(argv)
        report.add("command", args.subcommand)
        code = args.fn(args, report)
    except UsageError as exc:
        return str(exc), EXIT_ERROR
    except ParseError as exc:
        return f"parse error: {exc}\n", EXIT_ERROR
    except StructuralError as exc:
        return f"structural error: {exc}\n", EXIT_ERROR
    except PreconditionError as exc:
        return f"refused: {exc}\n", EXIT_FAIL
    except CoarsekitError as exc:
        return f"error: {exc}\n", EXIT_ERROR
    return report.render(args.format), code


def main() -> None:
    out, code = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
