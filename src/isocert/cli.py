"""Command-line front end: verification runs, reports, and the pipeline.

Subcommands:

  verify-identities   exact residual checks of the coframe identities
  solve               enumerate constrained curvature configurations
  certify             interval certificates (li | okumura | band)
  mollifier           smoothing-kernel CSV dump and property sweep
  cutoff              ramp CSV dump and property sweep
  examples            model catalog: listing and clause-level checks
  pipeline            one run of every ingredient with a combined verdict

Every run writes a deterministic JSON array of check records (sorted keys,
no timestamps); repeated runs with identical inputs are byte-identical.
Exit codes: 0 all pass, 1 failure, 2 inconclusive, 3 documented
discrepancy, 64 usage error, 70 internal error.  Any exception that is not
recognised as bad input (a pole met mid-computation, a monomial overflow,
a malformed record, or any unexpected crash) exits 70 with the traceback
on stderr, so a crash never reads as a failed check.  A flat key=value
config file can preset any flag of the chosen subcommand; explicit flags
win, unknown keys are rejected.  The worker count comes from --threads,
else $ISOCERT_THREADS, else 1; a value that is not a positive integer is a
usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import certify, configsolve, geomex, identities, mollify, reports
from .exactalg import MonomialOverflowError, PoleError
from .reports import check_record

THREADS_ENV = "ISOCERT_THREADS"

IDENTITY_GROUPS: dict[str, tuple[str, ...]] = {
    **{name: (name,) for name in identities.DTHETA_NAMES},
    "dphi": ("dphi",),
    **{name: (name,) for name in identities.CONTRACTION_NAMES},
    "dg_df_phi": ("dg_phi", "df_phi"),
}


def _worker_count(flag) -> int:
    """--threads, else $ISOCERT_THREADS, else 1; must be a positive integer."""
    source, raw = ("--threads", flag) if flag is not None else (
        f"${THREADS_ENV}", os.environ.get(THREADS_ENV) or "1")
    bad = UsageError(f"{source} must be a positive integer, got {raw!r}")
    try:
        n = int(raw)
    except ValueError:
        raise bad from None
    if n < 1:
        raise bad
    return n


def _identity_record(group: str, modes: tuple[str, ...]) -> dict:
    sub = {}
    all_zero = True
    for name in IDENTITY_GROUPS[group]:
        for mode in modes:
            rep = identities.verify_identity(name, mode)
            sub[f"{name}.{mode}"] = rep.to_json()
            all_zero = all_zero and rep.residual_is_zero
    return check_record(
        group,
        "pass" if all_zero else "fail",
        {"residual_is_zero": all_zero, "checks": sub},
    )


def run_verify_identities(args) -> tuple[list[dict], int]:
    groups = list(IDENTITY_GROUPS) if args.which == "all" else [args.which]
    for g in groups:
        if g not in IDENTITY_GROUPS:
            raise UsageError(f"unknown identity {g!r}; known: all, {', '.join(IDENTITY_GROUPS)}")
    modes = ("symbolic", "expanded") if args.mode == "both" else (args.mode,)
    threads = args.threads
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            recs = list(pool.map(lambda g: _identity_record(g, modes), groups))
    else:
        recs = [_identity_record(g, modes) for g in groups]
    recs.sort(key=lambda r: list(IDENTITY_GROUPS).index(r["name"]))
    return recs, reports.exit_code(recs)


def _config_json(cfg: configsolve.CurvatureConfig, precision: Fraction) -> dict:
    lams = cfg.lambda_intervals(precision)
    ps = cfg.power_sum_intervals(precision)
    return {
        "system": cfg.tag,
        "lambdas": [[float(l.lo), float(l.hi)] for l in lams],
        "lambdas_exact": [[str(l.lo), str(l.hi)] for l in lams],
        "power_sums": {k: [float(v.lo), float(v.hi)] for k, v in sorted(ps.items())},
        "defining_poly": [str(c) for c in cfg.defining_poly],
        "multiplicities": list(cfg.multiplicities),
        "constraint_satisfied_sorted": cfg.constraint_satisfied,
        "verified": cfg.verify_constraints(precision),
        "warnings": list(cfg.warnings),
    }


def run_solve(args) -> tuple[list[dict], int]:
    params = configsolve.ScalarParams.make(args.S, args.A3)
    precision = Fraction(args.precision).limit_denominator(10**18)
    cfgs = configsolve.solve_system(args.system, params, precision)
    payload = {
        "S": str(params.S),
        "A3": str(params.A3),
        "precision": float(precision),
        "count": len(cfgs),
        "configs": [_config_json(c, precision) for c in cfgs],
        "warnings": params.admissibility_warnings(),
    }
    ok = all(all(c["verified"].values()) for c in payload["configs"])
    recs = [check_record(f"solve_system_{args.system}", "pass" if ok else "fail", payload)]
    return recs, reports.exit_code(recs)


def run_certify(args) -> tuple[list[dict], int]:
    if args.kind == "li":
        cert = certify.certify_Li_negative(
            Fraction(args.S), args.tau, margin=args.margin, max_depth=args.max_depth
        )
        recs = [check_record(cert.claim, cert.status, cert.to_json())]
        if args.cross_check:
            xc = certify.sample_Li_cross_check(Fraction(args.S), args.tau, count=args.cross_check)
            recs.append(check_record(
                "gamma_Li_negative_cross_check",
                "pass" if not xc["violations"] else "fail",
                xc,
            ))
    elif args.kind == "okumura":
        cert = certify.certify_okumura(4, tol=args.tol, max_depth=args.max_depth,
                                       near_radius=args.near_radius)
        recs = [check_record(cert.claim, cert.status, cert.to_json())]
        eq = certify.okumura_equality_case_exact()
        recs.append(check_record(
            "okumura_equality_case",
            "pass" if all(eq.values()) else "fail",
            eq,
        ))
    elif args.kind == "band":
        quantities = certify.band_quantity_names() if args.quantity == "all" else (args.quantity,)
        recs = []
        for q in quantities:
            cert = certify.certify_band_bounds(
                q, Fraction(args.S), args.A3, Fraction(args.eps0), Fraction(args.delta1),
                max_depth=args.max_depth,
            )
            recs.append(check_record(cert.claim, cert.status, cert.to_json()))
    else:
        raise UsageError(f"unknown certify kind {args.kind!r}")
    return recs, reports.exit_code(recs)


def _emit_csv(rows: list[list], header: list[str], path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_mollifier(args) -> tuple[list[dict], int]:
    if args.emit == "csv":
        m = mollify.Mollifier(args.delta)
        ts = [(-2 * args.delta) + 4 * args.delta * i / (args.samples - 1) for i in range(args.samples)]
        rows = [
            [t, m.value(t, via_quadrature=True), m.derivative(t), m.second_derivative(t), abs(t)]
            for t in ts
        ]
        _emit_csv(rows, ["t", "h", "h_prime", "h_second", "abs_t"], args.out)
        return [], reports.EXIT_PASS
    rep = mollify.mollifier_property_report(args.delta, samples=args.samples)
    recs = [check_record("mollifier_properties", rep.pop("status"), rep)]
    return recs, reports.exit_code(recs)


def run_cutoff(args) -> tuple[list[dict], int]:
    if args.emit == "csv":
        c = mollify.Cutoff(args.eps)
        ts = [(-0.5 * args.eps) + 2 * args.eps * i / (args.samples - 1) for i in range(args.samples)]
        rows = [[t, c.value(t), c.derivative(t)] for t in ts]
        _emit_csv(rows, ["t", "eta", "eta_prime"], args.out)
        return [], reports.EXIT_PASS
    rep = mollify.cutoff_property_report(args.eps, samples=args.samples)
    recs = [check_record("cutoff_properties", rep.pop("status"), rep)]
    return recs, reports.exit_code(recs)


def _model_record(name: str, theorem: int) -> dict:
    model = geomex.get_model(name)
    rep = geomex.check_model(model, theorem)
    return check_record(f"model_{name}_theorem_{theorem}", rep.pop("status"), rep)


def run_examples(args) -> tuple[list[dict], int]:
    if args.list:
        recs = []
        for name in geomex.catalog_names():
            model = geomex.get_model(name)
            ps = model.power_sum_intervals()
            recs.append(check_record(
                f"model_{name}", "info",
                {
                    "spectrum": [str(v) for v in model.spectrum],
                    "multiplicities": list(model.multiplicities),
                    "power_sums": {k: [str(a), str(b)] for k, (a, b) in sorted(ps.items())},
                    "S": str(model.S),
                    "A3": str(model.A3),
                    "scalar_curvature": str(model.scalar_curvature),
                    "sum_h_squared": str(model.sum_h_squared()),
                },
            ))
        return recs, reports.EXIT_PASS
    if not args.check:
        raise UsageError("examples requires --list or --check NAME")
    recs = [_model_record(args.check, args.theorem)]
    if args.format == "text":
        rec = recs[0]
        lines = [f"{rec['name']}: {rec['status']}"]
        for part, label in (("hypotheses", "hypothesis"), ("conclusions", "conclusion"),
                            ("extras", "extra")):
            for clause in rec.get(part, ()):
                mark = "ok" if clause["holds"] else "VIOLATED"
                detail = f"  [{clause['detail']}]" if clause.get("detail") else ""
                lines.append(f"  {mark:<9} {label}: {clause['clause']}{detail}")
        if "note" in rec:
            lines.append(f"  note: {rec['note']}")
        sys.stderr.write("\n".join(lines) + "\n")
    return recs, reports.exit_code(recs)


def run_pipeline(args) -> tuple[list[dict], int]:
    """Every desk-checkable ingredient, one verdict."""
    S = Fraction(args.S)
    params = configsolve.ScalarParams.make(args.S, args.A3)
    recs: list[dict] = []
    # 1. Exact identity suite.
    modes = ("symbolic", "expanded")
    for group in IDENTITY_GROUPS:
        recs.append(_identity_record(group, modes))
    # 2. Negativity of the four coefficient functions on the collared chamber.
    tau = args.tau if args.tau is not None else 0.05 * float(S) ** 0.5
    cert = certify.certify_Li_negative(S, tau, margin=args.margin, max_depth=args.max_depth)
    recs.append(check_record(cert.claim, cert.status, cert.to_json()))
    xc = certify.sample_Li_cross_check(S, tau, count=args.samples)
    recs.append(check_record(
        "gamma_Li_negative_cross_check",
        "pass" if not xc["violations"] else "fail",
        {"samples": xc["samples"], "violations": xc["violations"]},
    ))
    # 3. The cubic-sum bound and its exact equality case.
    cert = certify.certify_okumura(4, tol=1e-6)
    recs.append(check_record(cert.claim, cert.status, cert.to_json()))
    eq = certify.okumura_equality_case_exact()
    recs.append(check_record("okumura_equality_case", "pass" if all(eq.values()) else "fail", eq))
    # 4. Band bounds for every named quantity.
    for q in certify.band_quantity_names():
        cert = certify.certify_band_bounds(q, S, params.A3, Fraction(args.eps0),
                                           Fraction(args.delta1), max_depth=args.max_depth)
        recs.append(check_record(cert.claim, cert.status, cert.to_json()))
    # 5. Branch identities and the configuration systems at these constants.
    cb = configsolve.case_branch_identities(params)
    recs.append(check_record("case_branch_identities", cb.pop("status"), cb))
    precision = Fraction(1, 10**12)
    for tag in ("I", "II", "III"):
        cfgs = configsolve.solve_system(tag, params, precision)
        ok = all(all(c.verify_constraints(precision).values()) for c in cfgs)
        recs.append(check_record(
            f"solve_system_{tag}", "pass" if ok else "fail",
            {"count": len(cfgs),
             "satisfied_in_sorted_order": sum(1 for c in cfgs if c.constraint_satisfied)},
        ))
    # 6. Smoothing kernel, gap value, and ramp properties.
    delta = float(Fraction(args.delta1))
    eps0 = float(Fraction(args.eps0))
    rep = mollify.mollifier_property_report(delta, samples=args.samples)
    recs.append(check_record("mollifier_properties", rep.pop("status"), rep))
    rep = mollify.gap_value_property_report(delta, eps0, samples=args.samples)
    recs.append(check_record("gap_value_properties", rep.pop("status"), rep))
    rep = mollify.cutoff_property_report(delta / 4, samples=args.samples)
    recs.append(check_record("cutoff_properties", rep.pop("status"), rep))
    # 7. Catalog landmarks.
    for name in geomex.catalog_names():
        model = geomex.get_model(name)
        ps = model.power_sums
        landmark_ok = ps["p1"].sign() == 0 and (
            model.S * (model.S - geomex.QuadExt.rational(4))
            - model.sum_h_squared()
        ).sign() == 0
        bound_ok = (model.S**3 - model.A3 * model.A3 * 3).sign() >= 0
        recs.append(check_record(
            f"landmark_{name}", "pass" if (landmark_ok and bound_ok) else "fail",
            {"S": str(model.S), "A3": str(model.A3),
             "minimal": ps["p1"].sign() == 0, "cubic_bound_holds": bound_ok},
        ))
    verdict = reports.exit_code(recs)
    summary = check_record(
        "pipeline_summary",
        "pass" if verdict == 0 else ("inconclusive" if verdict == 2 else "fail"),
        {
            "S": str(params.S), "A3": str(params.A3),
            "eps0": str(Fraction(args.eps0)), "delta1": str(Fraction(args.delta1)),
            "ingredients": len(recs),
            "verdict": "all desk-checkable ingredients verified" if verdict == 0
            else "ingredient failures present",
        },
    )
    recs.append(summary)
    return recs, verdict


class UsageError(Exception):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report array to this path")
    p.add_argument("--config", help="flat key=value file presetting this subcommand's flags")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads, at least 1 (default from ${THREADS_ENV} or 1)")
    p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isocert",
        description="Exact and interval certification toolkit for constrained "
                    "principal-curvature computations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", help="exact residual checks")
    p.add_argument("--which", default="all")
    p.add_argument("--mode", choices=("symbolic", "expanded", "both"), default="both")
    _add_common(p)

    p = sub.add_parser("solve", help="enumerate constrained configurations")
    p.add_argument("--system", required=True, choices=("I", "II", "III"))
    p.add_argument("--S", required=True)
    p.add_argument("--A3", required=True)
    p.add_argument("--precision", type=float, default=1e-12)
    _add_common(p)

    p = sub.add_parser("certify", help="interval certificates")
    p.add_argument("kind", choices=("li", "okumura", "band"))
    p.add_argument("--S", default="8")
    p.add_argument("--A3", default="0")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--margin", type=float, default=1e-9)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--near-radius", type=float, default=1e-3)
    p.add_argument("--eps0", default="1/10")
    p.add_argument("--delta1", default="1/20")
    p.add_argument("--quantity", default="all")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--cross-check", type=int, default=0,
                   help="also run this many exact random spot checks (li)")
    _add_common(p)

    p = sub.add_parser("mollifier", help="smoothing kernel dump / properties")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--emit", choices=("csv", "report"), default="report")
    _add_common(p)

    p = sub.add_parser("cutoff", help="ramp dump / properties")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--emit", choices=("csv", "report"), default="report")
    _add_common(p)

    p = sub.add_parser("examples", help="model catalog")
    p.add_argument("--list", action="store_true")
    p.add_argument("--check")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--format", choices=("json", "text"), default="text")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run every ingredient with one verdict")
    p.add_argument("--S", required=True)
    p.add_argument("--A3", required=True)
    p.add_argument("--eps0", required=True)
    p.add_argument("--delta1", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--margin", type=float, default=1e-9)
    p.add_argument("--max-depth", type=int, default=30)
    p.add_argument("--samples", type=int, default=2000)
    _add_common(p)
    return ap


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv: list[str]) -> None:
    """Overlay key=value file entries under explicit command-line flags."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    known = set(vars(args))
    for i, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {i}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in known or dest in ("command", "config"):
            raise UsageError(f"config line {i}: unknown key {key!r}")
        if dest in explicit:
            continue
        current = getattr(args, dest)
        if isinstance(current, bool):
            setattr(args, dest, value.lower() in ("1", "true", "yes"))
        elif isinstance(current, int) and not isinstance(current, bool):
            setattr(args, dest, int(value))
        elif isinstance(current, float):
            setattr(args, dest, float(value))
        else:
            setattr(args, dest, value.strip("\"'"))


_RUNNERS = {
    "verify-identities": run_verify_identities,
    "solve": run_solve,
    "certify": run_certify,
    "mollifier": run_mollifier,
    "cutoff": run_cutoff,
    "examples": run_examples,
    "pipeline": run_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return reports.EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _apply_config(args, parser, argv)
        args.threads = _worker_count(args.threads)
        if args.command == "certify" and args.max_depth is None:
            args.max_depth = {"li": 20, "okumura": 50, "band": 30}[args.kind]
        recs, code = _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return reports.EXIT_USAGE
    except (PoleError, MonomialOverflowError, reports.InternalError) as exc:
        # Before the ValueError/ZeroDivisionError clause: PoleError is a
        # ZeroDivisionError, but it is the program's fault, not the input's.
        print(f"internal error: {exc}", file=sys.stderr)
        return reports.EXIT_INTERNAL
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return reports.EXIT_USAGE
    except Exception as exc:
        # Last: any other crash is the program's fault; exit 1 would read
        # as a failed verification.
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return reports.EXIT_INTERNAL
    if recs:
        text = reports.render(recs)
        to_file = getattr(args, "out", None)
        if to_file:
            with open(to_file, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if not getattr(args, "quiet", False):
            fmt = getattr(args, "format", "text")
            if fmt != "json":
                # Keep stdout pure JSON when it carries the report array;
                # with --out the summary can use standard output directly.
                stream = sys.stdout if to_file else sys.stderr
                stream.write(reports.summarize(recs))
    return code


if __name__ == "__main__":
    sys.exit(main())
