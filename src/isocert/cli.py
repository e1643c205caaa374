"""Command-line front end: verification runs, reports, and the pipeline.

Subcommands:

  verify-identities   exact residual checks of the coframe identities
  solve               enumerate constrained curvature configurations
  certify             exact sign certificates (li | okumura), interval
                      branch and bound (band)
  mollifier           smoothing-kernel CSV dump and property sweep
  cutoff              ramp CSV dump and property sweep
  examples            model catalog: listing and clause-level checks
  pipeline            one run of every ingredient with a combined verdict

Every run writes a deterministic JSON array of check records (sorted keys,
no timestamps); repeated runs with identical inputs are byte-identical.
Exit codes: 0 all pass, 1 failure, 2 inconclusive, 3 documented
discrepancy, 64 usage error, 70 internal error.  Every input is checked
before any computation: each flag by its argparse type or choices (config
file values by the same ones), and the flag combinations by
`_check_combinations`.  So a bad input is a usage error, and any exception
raised once the run has started (a library's ValueError included) is a
fault of the program: it exits 70 with the traceback on stderr, so a crash
never reads as a failed check.  A flat key=value config file can preset
any flag of the chosen subcommand; explicit flags win, unknown keys are
rejected.  The parser adds a subcommand's flags only when the
subcommand is chosen.  --threads (default 1) is checked like any other
input but changes neither results nor speed: every run is serial.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import certify, configsolve, geomex, identities, mollify, reports
from .algebraic import cubic_bound_sign
from .reports import check_record

IDENTITY_GROUPS: dict[str, tuple[str, ...]] = {
    **{name: (name,) for name in identities.DTHETA_NAMES},
    "dphi": ("dphi",),
    **{name: (name,) for name in identities.CONTRACTION_NAMES},
    "dg_df_phi": ("dg_phi", "df_phi"),
}


def _identity_record(group: str, modes: tuple[str, ...]) -> dict:
    """One group's record over the requested modes.

    A check in `identities.MODE_FREE_NAMES` is computed once, in the first
    mode, and its report rendered for each mode with that mode's name; the
    record's bytes are those of one computation per mode.
    """
    sub = {}
    all_zero = True
    for name in IDENTITY_GROUPS[group]:
        rep = None
        for mode in modes:
            if rep is not None and name in identities.MODE_FREE_NAMES:
                rep = dataclasses.replace(rep, mode=mode)
            else:
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
    modes = ("symbolic", "expanded") if args.mode == "both" else (args.mode,)
    recs = [_identity_record(g, modes) for g in groups]
    return recs, reports.exit_code(recs)


def _config_json(cfg: configsolve.CurvatureConfig, precision: Fraction) -> dict:
    lams = cfg.lambdas      # the enclosures `solve_system` computed at this precision
    ps = cfg.power_sum_intervals(precision)
    return {
        "system": cfg.tag,
        "lambdas": [[float(l.lo), float(l.hi)] for l in lams],
        "lambdas_exact": [[str(l.lo), str(l.hi)] for l in lams],
        "power_sums": {k: [float(v.lo), float(v.hi)] for k, v in sorted(ps.items())},
        "defining_poly": [str(c) for c in cfg.defining_poly],
        "multiplicities": list(cfg.multiplicities),
        "constraint_satisfied_sorted": cfg.constraint_satisfied,
        "verified": cfg.verify_constraints(ps),
        "warnings": list(cfg.warnings),
    }


def run_solve(args) -> tuple[list[dict], int]:
    params = configsolve.ScalarParams.make(args.S, args.A3)
    precision = args.precision
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


def _okumura_records(tol: float) -> list[dict]:
    """The cubic-sum bound and its exact equality case."""
    cert = certify.certify_okumura(4, tol=tol)
    eq = certify.okumura_equality_case_exact()
    return [check_record(cert.claim, cert.status, cert.to_json()),
            check_record("okumura_equality_case", "pass" if all(eq.values()) else "fail", eq)]


def run_certify(args) -> tuple[list[dict], int]:
    if args.kind == "li":
        cert = certify.certify_Li_negative(
            args.S, args.tau, margin=args.margin, max_depth=args.max_depth
        )
        recs = [check_record(cert.claim, cert.status, cert.to_json())]
        if args.cross_check:
            xc = certify.sample_Li_cross_check(args.S, args.tau, count=args.cross_check)
            recs.append(check_record(
                "gamma_Li_negative_cross_check",
                "pass" if not xc["violations"] else "fail",
                xc,
            ))
    elif args.kind == "okumura":
        recs = _okumura_records(args.tol)
    else:  # band; argparse admits no other kind
        certs = certify.certify_band(
            args.S, args.A3, args.eps0, args.delta1,
            certify.BAND_QUANTITIES if args.quantity == "all" else (args.quantity,),
            max_depth=args.max_depth)
        recs = [check_record(c.claim, c.status, c.to_json()) for c in certs]
    return recs, reports.exit_code(recs)


def _emit_csv(rows: list[list], header: list[str], path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        _write_out(path, text)
    else:
        sys.stdout.write(text)


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out file: {exc}") from None


def run_mollifier(args) -> tuple[list[dict], int]:
    if args.emit == "csv":
        m = mollify.Mollifier(args.delta)
        t = (-2 * args.delta) + 4 * args.delta * np.arange(args.samples) / (args.samples - 1)
        cols = [t, m.value(t, via_quadrature=True), m.derivative(t), m.second_derivative(t), np.abs(t)]
        _emit_csv(np.column_stack(cols).tolist(), ["t", "h", "h_prime", "h_second", "abs_t"], args.out)
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
    rep = geomex.check_model(geomex.get_model(args.check), args.theorem)
    recs = [check_record(f"model_{args.check}_theorem_{args.theorem}", rep.pop("status"), rep)]
    if not args.quiet:
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
    S = args.S
    params = configsolve.ScalarParams.make(S, args.A3)
    recs: list[dict] = []
    # 1. Exact identity suite.
    modes = ("symbolic", "expanded")
    for group in IDENTITY_GROUPS:
        recs.append(_identity_record(group, modes))
    # 2. Negativity of the four coefficient functions on the collared chamber.
    cert = certify.certify_Li_negative(S, args.tau, margin=args.margin, max_depth=args.max_depth)
    recs.append(check_record(cert.claim, cert.status, cert.to_json()))
    xc = certify.sample_Li_cross_check(S, args.tau, count=args.samples)
    recs.append(check_record(
        "gamma_Li_negative_cross_check",
        "pass" if not xc["violations"] else "fail",
        {"samples": xc["samples"], "violations": xc["violations"]},
    ))
    # 3. The cubic-sum bound and its exact equality case.
    recs += _okumura_records(1e-6)
    # 4. Band bounds for every named quantity.
    recs += [check_record(c.claim, c.status, c.to_json())
             for c in certify.certify_band(S, params.A3, args.eps0, args.delta1,
                                           max_depth=args.max_depth)]
    # 5. Branch identities and the configuration systems at these constants.
    cb = configsolve.case_branch_identities(params)
    recs.append(check_record("case_branch_identities", cb.pop("status"), cb))
    precision = Fraction(1, 10**12)
    for tag in ("I", "II", "III"):
        cfgs = configsolve.solve_system(tag, params, precision)
        ok = all(all(c.verify_constraints(c.power_sum_intervals(precision)).values())
                 for c in cfgs)
        recs.append(check_record(
            f"solve_system_{tag}", "pass" if ok else "fail",
            {"count": len(cfgs),
             "satisfied_in_sorted_order": sum(1 for c in cfgs if c.constraint_satisfied)},
        ))
    # 6. Smoothing kernel, gap value, and ramp properties.
    delta = float(args.delta1)
    eps0 = float(args.eps0)
    rep = mollify.mollifier_property_report(delta, samples=args.samples)
    recs.append(check_record("mollifier_properties", rep.pop("status"), rep))
    rep = mollify.gap_value_property_report(delta, eps0, samples=args.samples)
    recs.append(check_record("gap_value_properties", rep.pop("status"), rep))
    rep = mollify.cutoff_property_report(delta / 4, samples=args.samples)
    recs.append(check_record("cutoff_properties", rep.pop("status"), rep))
    # 7. Catalog landmarks.
    for name in geomex.catalog_names():
        model = geomex.get_model(name)
        minimal = model.power_sums["p1"].sign() == 0
        bound_ok = cubic_bound_sign(model.S, model.A3) >= 0
        recs.append(check_record(
            f"landmark_{name}", "pass" if (minimal and bound_ok) else "fail",
            {"S": str(model.S), "A3": str(model.A3),
             "minimal": minimal, "cubic_bound_holds": bound_ok},
        ))
    verdict = reports.exit_code(recs)
    summary = check_record(
        "pipeline_summary",
        "pass" if verdict == 0 else ("inconclusive" if verdict == 2 else "fail"),
        {
            "S": str(params.S), "A3": str(params.A3),
            "eps0": str(args.eps0), "delta1": str(args.delta1),
            "ingredients": len(recs),
            "verdict": "all desk-checkable ingredients verified" if verdict == 0
            else "ingredient failures present",
        },
    )
    recs.append(summary)
    return recs, verdict


class UsageError(Exception):
    """Bad input; the CLI exits EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, so `main` has one exit for bad input.

    A subcommand's parser adds its `flags` on first use (`with_flags`), so a run builds only its own."""

    def __init__(self, *args, flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending_flags = flags

    def with_flags(self) -> "_Parser":
        add, self._pending_flags = self._pending_flags, None
        if add is not None:
            add(self)
            _add_common(self)
        return self

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


class _Subcommands(argparse._SubParsersAction):
    """Adds the chosen subcommand's flags before its parser reads the rest of argv."""

    def __call__(self, parser, namespace, values, option_string=None):
        self.choices[values[0]].with_flags()
        super().__call__(parser, namespace, values, option_string)


def _checked(name: str, convert, accept=lambda value: True):
    """An argparse type that also refuses a converted value `accept` rejects.

    argparse reports a ValueError of `convert` as "invalid <name> value"
    itself, but lets an ArithmeticError escape, so that one is caught here.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ArithmeticError:         # Fraction("1/0"), Fraction(float("inf"))
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"invalid {name} value: {text!r}")
        return value
    parse.__name__ = name
    return parse


_NONNEGATIVE_RATIONAL = _checked("nonnegative rational", Fraction, lambda v: v >= 0)
_POSITIVE_RATIONAL = _checked("positive rational", Fraction, lambda v: v > 0)
_EXACT_VALUE = _checked("exact", configsolve.parse_value)
_POSITIVE_FLOAT = _checked("positive finite float", float, lambda v: 0 < v < math.inf)
_PRECISION = _checked("precision", lambda text: Fraction(float(text)).limit_denominator(10**18),
                      lambda v: v > 0)


def _int_at_least(low: int):
    return _checked(f"integer >= {low}", int, lambda v: v >= low)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report array to this path")
    p.add_argument("--config", help="flat key=value file presetting this subcommand's flags")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="worker count, at least 1 (default 1); "
                        "changes neither results nor speed: every run is serial")
    p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")


def _verify_identities_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", choices=("all", *IDENTITY_GROUPS), default="all")
    p.add_argument("--mode", choices=("symbolic", "expanded", "both"), default="both")


def _solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, choices=("I", "II", "III"))
    p.add_argument("--S", type=_NONNEGATIVE_RATIONAL, required=True)
    p.add_argument("--A3", type=_EXACT_VALUE, required=True)
    p.add_argument("--precision", type=_PRECISION, default="1e-12",
                   help="root enclosure width; must stay > 0 at a denominator of at most 10^18")


def _certify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("li", "okumura", "band"))
    p.add_argument("--S", type=_NONNEGATIVE_RATIONAL, default="8", help="li: must be > 0")
    p.add_argument("--A3", type=_EXACT_VALUE, default="0")
    p.add_argument("--tau", type=_POSITIVE_FLOAT, default=0.05)
    p.add_argument("--margin", type=float, default=None,
                   help="li: the certified bound must reach it (default 1e-9); "
                        "okumura and band: refused")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="okumura: recorded only, as the record's margin (the proof is exact)")
    p.add_argument("--eps0", type=_POSITIVE_RATIONAL, default="1/10")
    p.add_argument("--delta1", type=_POSITIVE_RATIONAL, default="1/20",
                   help="band: must be below eps0")
    p.add_argument("--quantity", choices=("all", *certify.BAND_QUANTITIES), default="all")
    p.add_argument("--max-depth", type=_int_at_least(0), default=None,
                   help="band: branch-and-bound depth limit (default 30); "
                        "li: recorded only (default 20); okumura: refused")
    p.add_argument("--cross-check", type=_int_at_least(0), default=0,
                   help="also run this many exact random spot checks (li)")


def _mollifier_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=_POSITIVE_FLOAT, required=True)
    p.add_argument("--samples", type=_int_at_least(2), default=1000)  # the CSV grid needs two
    p.add_argument("--emit", choices=("csv", "report"), default="report")


def _cutoff_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=_POSITIVE_FLOAT, required=True)
    p.add_argument("--samples", type=_int_at_least(2), default=1000)
    p.add_argument("--emit", choices=("csv", "report"), default="report")


def _examples_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--list", action="store_true")
    p.add_argument("--check", choices=geomex.catalog_names())
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), default=1)


def _pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--S", type=_NONNEGATIVE_RATIONAL, required=True, help="must be > 0")
    p.add_argument("--A3", type=_EXACT_VALUE, required=True)
    p.add_argument("--eps0", type=_POSITIVE_RATIONAL, required=True)
    p.add_argument("--delta1", type=_POSITIVE_RATIONAL, required=True, help="must be below eps0")
    p.add_argument("--tau", type=_POSITIVE_FLOAT, default=None)
    p.add_argument("--margin", type=float, default=1e-9)
    p.add_argument("--max-depth", type=_int_at_least(0), default=30,
                   help="band depth limit; recorded in the li record")
    p.add_argument("--samples", type=_int_at_least(1), default=2000)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing writes only
    to the fresh Namespace of each run.  Each subcommand's flags are added
    the first time it is chosen (`_Parser.with_flags`)."""
    ap = _Parser(
        prog="isocert",
        description="Exact and interval certification toolkit for constrained "
                    "principal-curvature computations",
    )
    sub = ap.add_subparsers(dest="command", required=True, action=_Subcommands)
    sub.add_parser("verify-identities", help="exact residual checks", flags=_verify_identities_flags)
    sub.add_parser("solve", help="enumerate constrained configurations", flags=_solve_flags)
    sub.add_parser("certify", help="sign and interval certificates", flags=_certify_flags)
    sub.add_parser("mollifier", help="smoothing kernel dump / properties", flags=_mollifier_flags)
    sub.add_parser("cutoff", help="ramp dump / properties", flags=_cutoff_flags)
    sub.add_parser("examples", help="model catalog", flags=_examples_flags)
    sub.add_parser("pipeline", help="run every ingredient with one verdict", flags=_pipeline_flags)
    return ap


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config file's key = value entries as flags right after the subcommand.

    The command line's own flags come later, so argparse lets them win,
    abbreviated or not, and the file can preset a required flag.
    """
    # Every spelling of --config that argparse accepts starts with --c;
    # without one, skip building the finder (about 30 us per run).
    if not any(a.startswith("--c") for a in argv[1:]):
        return argv
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = subparsers.choices.get(argv[0]) if argv else None
    if subparser is None:
        return argv
    subparser.with_flags()
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:      # the subcommand's own parse reports it
        return argv
    if not path:
        return argv
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    # Only flags can be preset; the subcommand and its positionals cannot.
    flags = {a.dest: a for a in subparser._actions
             if a.option_strings and a.dest not in ("config", "help")}
    entries = []
    for i, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {i}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config line {i}: unknown key {key!r}")
        flag = action.option_strings[0]
        if not isinstance(action, argparse._StoreTrueAction):
            entries.append(flag + "=" + value.strip("\"'"))
        elif value.lower() in ("1", "true", "yes"):
            entries.append(flag)
    return argv[:1] + entries + argv[1:]


def _emit_report(recs: list[dict], args: argparse.Namespace) -> None:
    text = reports.render(recs)
    to_file = getattr(args, "out", None)
    if to_file:
        _write_out(to_file, text)
    else:
        sys.stdout.write(text)
    if not getattr(args, "quiet", False):
        # Keep stdout pure JSON when it carries the report array; with
        # --out the summary can use standard output directly.
        stream = sys.stdout if to_file else sys.stderr
        stream.write(reports.summarize(recs))


_RUNNERS = {
    "verify-identities": run_verify_identities,
    "solve": run_solve,
    "certify": run_certify,
    "mollifier": run_mollifier,
    "cutoff": run_cutoff,
    "examples": run_examples,
    "pipeline": run_pipeline,
}


def _check_combinations(args: argparse.Namespace) -> None:
    """Refuse what no single flag's type can see; fill the defaults that depend on other flags."""
    run = f"certify {args.kind}" if args.command == "certify" else args.command
    if run in ("certify li", "pipeline") and args.S <= 0:
        raise UsageError(f"{run} requires S > 0: the gap chamber is a point at S = 0")
    if run in ("certify band", "pipeline") and not args.delta1 < args.eps0:
        raise UsageError(f"{run} requires delta1 < eps0")
    if run == "examples" and not (args.list or args.check):
        raise UsageError("examples requires --list or --check NAME")
    if run == "pipeline":
        # The Li stage and the smoothing reports take floats: the default
        # tau = 0.05 sqrt(S), and delta1 and delta1/4 as smoothing widths.
        if args.tau is None:
            args.tau = 0.05 * float(args.S) ** 0.5
        if args.tau == 0 or float(args.delta1) / 4 == 0:
            raise UsageError("pipeline: S or delta1 is too small for its floating-point stages")
    if run == "pipeline" or (run == "certify li" and args.cross_check):
        try:
            certify.sampler_tau(args.tau)
        except ValueError as exc:
            raise UsageError(f"{run}: {exc}") from None
        if certify.collar_sign(args.S, args.tau) <= 0:
            raise UsageError(f"{run}: 5 tau^2 >= S, so the collar holds at most one point"
                             " and the cross-check can sample none")
    if args.command != "certify":
        return
    if args.kind == "okumura" and args.max_depth is not None:
        raise UsageError("certify okumura takes no max_depth: its exact proof splits no cell")
    if args.kind != "li" and args.margin is not None:
        raise UsageError(f"certify {args.kind} takes no margin: it is not a bound"
                         " the proof must reach")
    if args.max_depth is None:
        args.max_depth = {"li": 20, "band": 30}.get(args.kind)
    if args.margin is None:
        args.margin = 1e-9


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        _check_combinations(args)
        recs, code = _RUNNERS[args.command](args)
        if recs:
            _emit_report(recs, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return reports.EXIT_USAGE
    except Exception as exc:
        # Every input was checked before the run, so this is the program's
        # fault; exit 1 would read as a failed verification.
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return reports.EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
