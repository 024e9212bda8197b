"""Command line interface.

Four subcommands:

  table    sweep the catalog up to a parameter cap; print a summary and
           optionally write CSV/JSON
  analyze  full spindle analysis of one family
  profile  slice profile of the canonical geodesic on a rational grid
  verify   run the self-verification battery

Exit codes: 0 success, 1 a verification-style check failed or the two
spindle methods disagree, 2 bad usage, an unidentifiable numeric
situation or a computation larger than the available memory. All
floating output is printed with 12 significant digits and JSON keys are
sorted, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .errors import (
    CatalogInconsistencyError,
    MembershipSearchError,
    MethodDisagreementError,
    ParameterError,
    SpindleError,
)
from .linalg import RationalAngle, check_eps, default_eps
from .spaces import (
    FAMILY_TAGS,
    SpaceFamily,
    build_space,
    catalog_entry,
    sweep_families,
)
from .spindle import closed_form_lambda, product_spindle, spindle_number
from .verification import run_verification

# profile builds its whole table before printing it; a --step asking for
# more rows than this is refused rather than run for hours.
MAX_PROFILE_ROWS = 1_000_000


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _checks_ok(report) -> bool:
    return all(v for v in report.checks.values() if v is not None) and (
        report.lambda_ == closed_form_lambda(report.space.family)
    )


def _row(report) -> dict:
    return {
        **catalog_entry(report.space),
        "lambda": report.lambda_,
        "method_exact": report.method_exact,
        "method_numeric": report.method_numeric,
        "frequencies": [float(nu) for nu in report.spectrum.frequencies],
        "extrinsically_symmetric": report.extrinsically_symmetric,
        "orbit_dim": report.spectrum.orbit_dim,
        "checks_ok": _checks_ok(report),
    }


def cmd_table(args) -> int:
    rows = [
        _row(spindle_number(build_space(family), eps=args.eps))
        for family in sweep_families(args.cap)
    ]

    if args.csv:
        fields = "family p q space orbit lambda method_exact method_numeric checks_ok".split()
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                p, *q = row["params"]
                writer.writerow({**row, "p": p, "q": q[0] if q else ""})

    if args.json:
        payload = {"cap": args.cap, "eps": args.eps, "rows": rows}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    width = max(len(row["space"]) for row in rows) if rows else 5
    print(f"{'family':10s} {'params':8s} {'space':{width}s} {'lambda':>6s} {'exact':>5s} {'numeric':>7s} ok")
    for row in rows:
        params = ",".join(str(v) for v in row["params"])
        print(
            f"{row['family']:10s} {params:8s} {row['space']:{width}s} "
            f"{row['lambda']:6d} {row['method_exact']:5d} {row['method_numeric']:7d} "
            f"{'yes' if row['checks_ok'] else 'NO'}"
        )
    bad = [row for row in rows if not row["checks_ok"]]
    print(f"{len(rows)} spaces, {len(rows) - len(bad)} fully verified")
    return 0 if not bad else 1


def _family_from_args(args) -> SpaceFamily:
    """The family of the positional arguments; SpaceFamily checks the arity."""
    return SpaceFamily(args.family, (args.p,) if args.q is None else (args.p, args.q))


def cmd_analyze(args) -> int:
    family = _family_from_args(args)
    space = build_space(family)
    report = spindle_number(space, eps=args.eps)
    spec = report.spectrum

    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return 0 if _checks_ok(report) else 1

    print(f"family    {family.label()}")
    print(f"space     {family.space_name()}")
    print(f"orbit     {family.orbit_name()}")
    print(f"dims      g={space.dim_g} k={space.k_dim} p={space.p_dim} orbit={spec.orbit_dim}")
    freq_parts = [
        f"{_fmt(nu)} (k:{mk}, p:{mp})"
        for nu, mk, mp in zip(spec.frequencies, spec.mult_k, spec.mult_p)
    ]
    print(f"spectrum  {'; '.join(freq_parts)}")
    print(f"ext-sym   {'yes' if report.extrinsically_symmetric else 'no'}")
    print(f"lambda    {report.lambda_} (exact {report.method_exact}, numeric {report.method_numeric})")
    print(f"length    {report.geodesic_length_over_norm} times |xi|")
    print(f"knots     {', '.join(str(t) for t in report.knot_times)}")
    print(f"centriole {', '.join(str(t) for t in report.centriole_times)}")
    if space.center_order is not None:
        print(f"center    order {space.center_order}")
    if space.cover_multiplier != 1:
        print(f"cover     multiplier {space.cover_multiplier}")
    for key in sorted(report.checks):
        value = report.checks[key]
        shown = "skipped" if value is None else ("ok" if value else "FAIL")
        print(f"check     {key}: {shown}")
    return 0 if _checks_ok(report) else 1


def cmd_profile(args) -> int:
    family = _family_from_args(args)
    step = RationalAngle.parse(args.step)
    if step.num <= 0:
        raise SpindleError(f"--step must be positive, got {args.step}")
    report = spindle_number(build_space(family), eps=args.eps)

    # One row per t = k*step in [0, lambda*pi]: k <= lambda*den/num.
    count = report.lambda_ * step.den // step.num + 1
    if count > MAX_PROFILE_ROWS:
        raise SpindleError(
            f"--step {args.step} asks for {count} rows, more than {MAX_PROFILE_ROWS}"
        )
    rows = [
        (text, _fmt(jacobi), str(dim), kind)
        for text, jacobi, dim, kind in report.profile_rows(step, count)
    ]

    header = ("t_over_pi", "jacobi_norm_sq", "slice_dimension", "classification")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(4)))
    return 0


def cmd_verify(args) -> int:
    if args.debug_scale is not None and not math.isfinite(args.debug_scale):
        raise ParameterError(f"--debug-scale must be a finite number, got {args.debug_scale!r}")
    if args.pair is not None:
        a, b = args.pair
        lam = product_spindle(a, b)
        print(f"product_spindle({a}, {b}) = {lam}")
        return 0

    results, ok = run_verification(
        cap=args.cap, eps=args.eps, debug_scale=args.debug_scale
    )
    failures = [r for r in results if not r.ok]
    if args.verbose:
        for r in results:
            print(str(r))
    else:
        for r in failures:
            print(str(r))

    by_kind: dict = {}
    for r in results:
        if r.name.startswith("product:"):
            kind = "product"
        elif ":" in r.name:
            kind = r.name.split(":", 1)[1]
        else:
            kind = r.name
        passed, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (passed + (1 if r.ok else 0), total + 1)
    for kind in sorted(by_kind):
        passed, total = by_kind[kind]
        print(f"{kind:40s} {passed}/{total}")
    print(f"{len(results)} checks, {len(results) - len(failures)} passed, {len(failures)} failed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindles",
        description="Spindle numbers of compact symmetric spaces from canonical elements.",
    )
    parser.add_argument(
        "--eps",
        type=float,
        default=None,
        help="absolute comparison tolerance (default 1e-9, or SPINDLE_EPS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="sweep the catalog and tabulate spindle numbers")
    p_table.add_argument("--cap", type=int, default=6, help="max parameter value (default 6)")
    p_table.add_argument("--csv", metavar="PATH", help="write the table as CSV")
    p_table.add_argument("--json", metavar="PATH", help="write the table as JSON")
    p_table.set_defaults(func=cmd_table)

    p_analyze = sub.add_parser("analyze", help="analyze a single family")
    p_analyze.add_argument("family", choices=list(FAMILY_TAGS))
    p_analyze.add_argument("p", type=int)
    p_analyze.add_argument("q", type=int, nargs="?", default=None)
    p_analyze.add_argument("--json", action="store_true", help="print the report as JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_profile = sub.add_parser("profile", help="slice profile along the canonical geodesic")
    p_profile.add_argument("family", choices=list(FAMILY_TAGS))
    p_profile.add_argument("p", type=int)
    p_profile.add_argument("q", type=int, nargs="?", default=None)
    p_profile.add_argument(
        "--step",
        required=True,
        help="grid step as a rational multiple of pi, e.g. 1/12",
    )
    p_profile.add_argument("--csv", metavar="PATH", help="write the profile as CSV")
    p_profile.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser("verify", help="run the self-verification battery")
    p_verify.add_argument("--cap", type=int, default=6, help="max parameter value (default 6)")
    p_verify.add_argument(
        "--debug-scale",
        type=float,
        default=None,
        help="rescale canonical elements to exercise the failure path",
    )
    p_verify.add_argument(
        "--pair",
        type=int,
        nargs=2,
        metavar=("L1", "L2"),
        help="only compute the product spindle number of two component values",
    )
    p_verify.add_argument("--verbose", action="store_true", help="print passing checks too")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _run_eps(flag: float | None) -> float:
    """The one eps of a run: --eps if given, else SPINDLE_EPS, else the
    default; check_eps's rule, naming the source that broke it."""
    return default_eps() if flag is None else check_eps(flag, "--eps")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and on --help
        return int(exc.code or 0)
    try:
        args.eps = _run_eps(args.eps)
        return args.func(args)
    except (
        CatalogInconsistencyError,
        MethodDisagreementError,
        MembershipSearchError,
    ) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (SpindleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
