"""Command-line front door: group / fusion / model / stable / corpus verbs.

Exit status: 0 on success, 1 when a computation answers "no" (not saturated,
fusions differ, dimensions disagree, family not nilpotent, invalid datum),
2 on unusable input (bad flags, unreadable or malformed files), 3 on a
broken internal invariant (NotACategory: a bug in the workbench).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import corpus_check
from .errors import NotACategory, UsageError, WorkbenchError
from .fusion import fusion_equal, fusion_from_group, is_saturated
from .groups import (
    elementary_abelians,
    full_subgroup,
    is_prime,
    lattice,
    sylow_p,
)
from .io import (
    describe_fusion,
    format_elems,
    load_datum,
    load_family,
    load_fusion_spec,
    load_group,
    load_presentation,
    serialize_family,
    serialize_presentation,
)
from .models import (
    AlperinReport,
    DatumInvalid,
    hnn_presentation,
    recover_fusion,
    robinson_presentation,
)
from .report import RunReport
from .stable import (
    MAX_DEGREE,
    is_nilpotent,
    poincare_series,
    quillen_limits,
    stable_bases,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def prime(text):
    """argparse type of --prime."""
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"must be a prime, not {text}")
    return p


def nonnegative(text):
    """argparse type of --max-degree."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
    return n


def build_parser():
    parser = _Parser(prog="fusionwb", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("group", help="inspect a group file")
    gs = g.add_subparsers(dest="action", required=True)
    gi = gs.add_parser("info")
    gi.add_argument("file")
    gg = gs.add_parser("subgroups")
    gg.add_argument("file")
    gy = gs.add_parser("sylow")
    gy.add_argument("file")
    gy.add_argument("--prime", type=prime, required=True)

    f = sub.add_parser("fusion", help="build and check fusion systems")
    fs = f.add_subparsers(dest="action", required=True)
    ft = fs.add_parser("saturate")
    ft.add_argument("--group")
    ft.add_argument("--prime", type=prime)
    ft.add_argument("--fusion")
    ft.add_argument("--out")

    m = sub.add_parser("model", help="emit and verify group models")
    ms = m.add_subparsers(dest="action", required=True)
    mh = ms.add_parser("hnn")
    mh.add_argument("fusionfile")
    mh.add_argument("--out")
    mr = ms.add_parser("robinson")
    mr.add_argument("datumfile")
    mr.add_argument("--out")
    mv = ms.add_parser("verify")
    mv.add_argument("--presentation", required=True)
    mv.add_argument("--fusion")
    mv.add_argument("--group")
    mv.add_argument("--prime", type=prime)
    mv.add_argument("--datum")
    mv.add_argument("--out")

    s = sub.add_parser("stable", help="stable elements over elementary abelians")
    ss = s.add_subparsers(dest="action", required=True)
    sb = ss.add_parser("basis")
    sb.add_argument("--fusion", required=True)
    sb.add_argument("--max-degree", type=nonnegative, default=6)
    sb.add_argument("--out")
    sp = ss.add_parser("poincare")
    sp.add_argument("--fusion", required=True)
    sp.add_argument("--max-degree", type=nonnegative, default=12)
    sp.add_argument("--out")
    sc = ss.add_parser("compare")
    sc.add_argument("--group", required=True)
    sc.add_argument("--fusion", required=True)
    sc.add_argument("--max-degree", type=nonnegative, default=8)
    sc.add_argument("--out")
    sn = ss.add_parser("nilpotent")
    sn.add_argument("--family", required=True)
    sn.add_argument("--fusion", required=True)
    sn.add_argument("--out")

    c = sub.add_parser("corpus", help="run the bundled invariant suite")
    cs = c.add_subparsers(dest="action", required=True)
    cc = cs.add_parser("check")
    cc.add_argument("--dir")
    cc.add_argument("--out")
    return parser


def run(argv):
    """Execute one command line; returns the report without exiting."""
    args = build_parser().parse_args(argv)
    handler = {
        "group": _run_group,
        "fusion": _run_fusion,
        "model": _run_model,
        "stable": _run_stable,
        "corpus": _run_corpus,
    }[args.verb]
    report = handler(args, RunReport(" ".join(["fusionwb"] + list(argv))))
    # emitting verbs write their artifact to --out themselves
    if getattr(args, "out", None) and not getattr(args, "_out_consumed", False):
        Path(args.out).write_text(report.render())
    return report


def _run_group(args, report):
    G = load_group(args.file)
    if args.action == "info":
        report.add(f"group {G.name}: order {G.order}")
        report.add(f"abelian: {'yes' if G.is_abelian() else 'no'}")
        report.add(f"subgroups: {len(lattice(G).subgroups)}")
        for p in sorted(G.order_factors):
            eas = elementary_abelians(G, p)
            report.add(f"elementary abelian {p}-subgroups: {len(eas)}")
    elif args.action == "subgroups":
        for P in lattice(G).subgroups:
            report.add(format_elems(P.elements))
    elif args.action == "sylow":
        P = sylow_p(G, args.prime)
        report.add(f"sylow_{args.prime}: {format_elems(P.elements)} "
                   f"(order {P.order})")
    return report


def _load_fusion_arg(args):
    if args.fusion and args.group:
        raise UsageError("pass --fusion FILE or --group FILE --prime P, "
                         "not both")
    if args.prime and not args.group:
        raise UsageError("--prime goes with --group")
    if args.fusion:
        spec = load_fusion_spec(args.fusion)
        return spec.fusion()
    if args.group:
        if not args.prime:
            raise UsageError("--group also needs --prime")
        G = load_group(args.group)
        return fusion_from_group(sylow_p(G, args.prime), G, p=args.prime)
    raise UsageError("pass --fusion FILE or --group FILE --prime P")


def _run_fusion(args, report):
    F = _load_fusion_arg(args)
    report.add(describe_fusion(F))
    rep = is_saturated(F)
    report.add(rep.render())
    if not rep.saturated:
        report.fail("fusion system is not saturated")
    return report


def _run_model(args, report):
    if args.action == "hnn":
        spec = load_fusion_spec(args.fusionfile)
        pres = hnn_presentation(full_subgroup(spec.group), spec.p, spec.phis)
        _emit_presentation(args, report, pres)
        return report
    if args.action == "robinson":
        datum = load_datum(args.datumfile).datum
        try:
            pres = robinson_presentation(datum)
        except DatumInvalid as exc:
            report.add(exc.report.render())
            report.fail("datum is invalid")
            return report
        report.add(AlperinReport().render())
        _emit_presentation(args, report, pres)
        return report
    # verify
    if args.datum and (args.fusion or args.group or args.prime):
        raise UsageError(
            "pass --datum alone, without --fusion, --group or --prime")
    pres = load_presentation(args.presentation)
    if args.datum:
        expected = load_datum(args.datum).fusion
    else:
        expected = _load_fusion_arg(args)
    S = full_subgroup(pres.s_group)
    got = recover_fusion(pres, S, 1)
    report.add(f"recovered: {describe_fusion(got)}")
    report.add("automorphisms of S recovered: "
               + ", ".join(map(format_elems, got.homsets[got.S.elements])))
    if fusion_equal(got, expected):
        report.add("recovered fusion equals the expected fusion")
    else:
        report.fail("recovered fusion differs from the expected fusion")
    return report


def _run_stable(args, report):
    if args.action == "nilpotent":
        F = load_fusion_spec(args.fusion).fusion()
        fam = load_family(F, args.family)
        report.add(f"family of degree {fam.degree}")
        if is_nilpotent(fam):
            report.add("nilpotent: yes (all polynomial projections vanish)")
        else:
            report.add("nilpotent: no")
            report.fail("family is not nilpotent")
        return report
    if args.max_degree > MAX_DEGREE:
        raise UsageError(f"--max-degree capped at {MAX_DEGREE}")
    if args.action == "basis":
        F = load_fusion_spec(args.fusion).fusion()
        report.add(describe_fusion(F))
        for d, fams in enumerate(stable_bases(F, args.max_degree)):
            report.add(f"degree {d}: dimension {len(fams)}")
            for k, fam in enumerate(fams):
                for line in serialize_family(fam).splitlines():
                    report.add(f"  [{k}] {line}")
        return report
    if args.action == "poincare":
        F = load_fusion_spec(args.fusion).fusion()
        dims = poincare_series(F, args.max_degree)
        report.add("degrees 0..%d: %s" % (args.max_degree,
                                          " ".join(map(str, dims))))
        return report
    # compare
    spec = load_fusion_spec(args.fusion)
    F = spec.fusion()
    G = load_group(args.group)
    sdims = poincare_series(F, args.max_degree)
    qdims = [q.dimension for q in
             quillen_limits(G, spec.p, range(args.max_degree + 1))]
    report.add("stable  dims: " + " ".join(map(str, sdims)))
    report.add("quillen dims: " + " ".join(map(str, qdims)))
    if sdims == qdims:
        report.add("dimensions agree")
    else:
        report.fail("dimensions disagree")
    return report


def _emit_presentation(args, report, pres):
    text = serialize_presentation(pres)
    if args.out:
        Path(args.out).write_text(text)
        args._out_consumed = True
        report.add(f"wrote {args.out}: {len(pres.generators)} generators, "
                   f"{len(pres.relators)} relators")
    else:
        report.add(text.rstrip("\n"))


def _run_corpus(args, report):
    rep = corpus_check(directory=args.dir)
    rep.command = report.command
    return rep


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report = run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NotACategory as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (WorkbenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    timings = report.render_timings()
    if timings:
        sys.stderr.write(timings)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
