"""Command-line surface: subcommands, exit codes, reports, determinism."""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from isocert import certify, cli, configsolve, identities, mollify, reports
from isocert.exactalg import MonomialOverflowError

ENTRY = [sys.executable, "-m", "isocert"]


def run_cli(*args, check=False):
    return subprocess.run(
        ENTRY + list(args), capture_output=True, text=True, check=check, timeout=600
    )


def test_verify_single_identity():
    out = run_cli("verify-identities", "--which", "dtheta_12", "--mode", "symbolic", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    assert len(recs) == 1
    assert recs[0]["name"] == "dtheta_12"
    assert recs[0]["status"] == "pass"
    assert recs[0]["schema_version"] == "1.0"
    assert recs[0]["checks"]["dtheta_12.symbolic"]["residual_is_zero"] is True


def test_solve_system_I_json():
    out = run_cli("solve", "--system", "I", "--S", "12", "--A3", "0", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    payload = recs[0]
    assert payload["status"] == "pass"
    satisfied = [c for c in payload["configs"] if c["constraint_satisfied_sorted"]]
    assert len(satisfied) == 1
    lams = satisfied[0]["lambdas"]
    gap = lams[1][0] - lams[0][1]
    assert abs(gap - 1.5491933384829668) < 1e-9
    assert all(satisfied[0]["verified"].values())


def test_certify_li_exit_zero():
    out = run_cli("certify", "li", "--S", "8", "--tau", "0.05", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    assert recs[0]["status"] == "proved"


def test_certify_band_single_quantity():
    out = run_cli("certify", "band", "--quantity", "m0", "--S", "8", "--A3", "1",
                  "--eps0", "1/10", "--delta1", "1/20", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    assert recs[0]["name"] == "band_m0"
    assert recs[0]["status"] == "proved"


def test_band_quantity_record_is_the_same_alone(tmp_path):
    # At depth 15 the G3f frontier has parted from the other f quantities'.
    argv = ["certify", "band", "--S", "8", "--A3", "13", "--max-depth", "15", "--quiet"]
    one, every = tmp_path / "one.json", tmp_path / "all.json"
    assert cli.main(argv + ["--quantity", "G3f", "--out", str(one)]) == reports.EXIT_INCONCLUSIVE
    assert cli.main(argv + ["--quantity", "all", "--out", str(every)]) == reports.EXIT_INCONCLUSIVE
    [rec] = json.loads(one.read_text())
    assert rec["status"] == "inconclusive"
    assert rec == next(r for r in json.loads(every.read_text()) if r["name"] == "band_G3f")


def test_examples_check_discrepancy_exit_code():
    out = run_cli("examples", "--check", "clifford1", "--theorem", "2", "--quiet")
    assert out.returncode == 3
    recs = json.loads(out.stdout)
    assert recs[0]["status"] == "documented_discrepancy"
    assert "note" in recs[0]


def test_examples_list():
    out = run_cli("examples", "--list", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    names = {r["name"] for r in recs}
    assert "model_g4" in names and "model_clifford1" in names


def test_examples_takes_no_format_flag_and_quiet_leaves_stderr_empty(capsys):
    argv = ["examples", "--check", "g4", "--theorem", "2"]
    assert cli.main(argv + ["--format", "json"]) == reports.EXIT_USAGE
    capsys.readouterr()
    for args in (argv, ["examples", "--list"]):
        assert cli.main(args + ["--quiet"]) == reports.EXIT_PASS
        assert capsys.readouterr().err == ""


def test_usage_errors():
    out = run_cli("frobnicate")
    assert out.returncode == 64
    out = run_cli("solve", "--system", "I", "--S", "12", "--A3", "two")
    assert out.returncode == 64
    out = run_cli("examples")
    assert out.returncode == 64


def test_mollifier_csv(tmp_path):
    path = tmp_path / "mollifier.csv"
    out = run_cli("mollifier", "--delta", "0.5", "--samples", "32", "--emit", "csv",
                  "--out", str(path), "--quiet")
    assert out.returncode == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,h,h_prime,h_second,abs_t"
    assert len(lines) == 33


def test_cutoff_csv_to_stdout():
    out = run_cli("cutoff", "--eps", "0.3", "--samples", "16", "--emit", "csv", "--quiet")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "t,eta,eta_prime"
    assert len(lines) == 17


def test_config_file_presets_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.5\nmargin = 1e-9\n# comment line\n")
    out = run_cli("certify", "li", "--S", "20", "--config", str(cfg), "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    assert recs[0]["region"]["tau"] == 0.5
    # Explicit flags override the file.
    out = run_cli("certify", "li", "--S", "20", "--tau", "0.4", "--config", str(cfg), "--quiet")
    recs = json.loads(out.stdout)
    assert recs[0]["region"]["tau"] == 0.4


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("no_such_flag = 1", "kind = okumura", "command = solve"):
        cfg.write_text(line + "\n")
        out = run_cli("certify", "li", "--config", str(cfg))
        assert out.returncode == 64, line
        assert "unknown key" in out.stderr


def test_config_values_take_the_option_type(tmp_path):
    # --max-depth defaults to None; its config value must still become an int.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_depth = 20\n")
    argv = ["certify", "band", "--quantity", "G1g", "--S", "8", "--A3", "1", "--quiet"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(argv + ["--max-depth", "20", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cfg.write_text("max_depth = deep\n")
    assert cli.main(argv + ["--config", str(cfg)]) == reports.EXIT_USAGE


@pytest.mark.parametrize("flag", [["--max-depth", "5"], ["--max", "5"], ["--max-d=5"]])
def test_explicit_flag_outranks_the_config_file_when_abbreviated(tmp_path, capsys, flag):
    # The file asks for depth 20, where G1g is proved; depth 5 leaves it open.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_depth = 20\n")
    argv = ["certify", "band", "--quantity", "G1g", "--S", "8", "--A3", "1", "--quiet"]
    assert cli.main(argv + flag + ["--config", str(cfg)]) == reports.EXIT_INCONCLUSIVE
    [rec] = json.loads(capsys.readouterr().out)
    assert rec["status"] == "inconclusive"


def test_config_file_presets_required_flags(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("S = 8\nA3 = 1\neps0 = 1/10\ndelta1 = 1/20\nsamples = 50\n")
    assert cli.main(["pipeline", "--config", str(cfg), "--quiet"]) == reports.EXIT_PASS
    from_file = capsys.readouterr().out
    assert cli.main(["pipeline", f"--conf={cfg}", "--quiet"]) == reports.EXIT_PASS
    assert from_file == capsys.readouterr().out
    assert cli.main(["pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1/20",
                     "--samples", "50", "--quiet"]) == reports.EXIT_PASS
    assert from_file == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["examples", "--list"],
    ["mollifier", "--delta", "0.1", "--samples", "5", "--emit", "csv"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(argv + ["--out", str(path)]) == reports.EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "internal error" not in err


def test_identity_reports_byte_identical_across_threads():
    a = run_cli("verify-identities", "--which", "dg_df_phi", "--mode", "symbolic",
                "--threads", "1", "--quiet")
    b = run_cli("verify-identities", "--which", "dg_df_phi", "--mode", "symbolic",
                "--threads", "2", "--quiet")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_certify_reports_byte_identical():
    args = ("certify", "okumura", "--tol", "1e-6", "--quiet")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_golden_identity_report():
    out = run_cli("verify-identities", "--which", "dtheta_12", "--mode", "symbolic", "--quiet")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "dtheta_12_symbolic.json").read_text()


def test_golden_gap_identity_report():
    # The extracted B_i/G_i strings are the report bytes that depend on the
    # monomial order and on how coefficients print.
    out = run_cli("verify-identities", "--which", "dg_df_phi", "--mode", "symbolic", "--quiet")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "dg_df_phi_symbolic.json").read_text()


def test_golden_band_sign_certificate():
    out = run_cli("certify", "band", "--quantity", "B1g", "--S", "8", "--A3", "1",
                  "--eps0", "1/10", "--delta1", "1/20", "--quiet")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "band_B1g.json").read_text()


# (S, A3, eps0, delta1, --max-depth, exit code) for the walked band goldens:
# every quantity of both sides, at a rational A3, at one where the
# quantities' frontiers part after depth 14 (and depths 13-15 leave open
# cells; 13 and 14 are where the walk starts reading enclosures), and at two
# radical A3, one a sweep point near the cubic bound.
BAND_GOLDENS = {
    "8_1": ("8", "1", "1/10", "1/20", "30", 0),
    "8_13": ("8", "13", "1/10", "1/20", "30", 0),
    "8_13_depth13": ("8", "13", "1/10", "1/20", "13", 2),
    "8_13_depth14": ("8", "13", "1/10", "1/20", "14", 2),
    "8_13_depth15": ("8", "13", "1/10", "1/20", "15", 2),
    "37_4_5sqrt3_2": ("37/4", "5*sqrt(3)/2", "1/10", "1/20", "30", 0),
    "17_2_29sqrt3_4": ("17/2", "29*sqrt(3)/4", "1/11", "7/110", "30", 0),
}


@pytest.mark.parametrize("case", sorted(BAND_GOLDENS))
def test_golden_band_walk_reports(case, capsys):
    S, A3, eps0, delta1, depth, code = BAND_GOLDENS[case]
    assert cli.main(["certify", "band", "--quantity", "all", "--S", S, "--A3", A3,
                     "--eps0", eps0, "--delta1", delta1, "--max-depth", depth, "--quiet"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"band_all_{case}.json").read_text()


@pytest.mark.parametrize("argv, golden", [
    (("certify", "li", "--S", "8"), "certify_li.json"),
    (("certify", "okumura", "--tol", "1e-6"), "certify_okumura.json"),
])
def test_golden_exact_sign_certificates(argv, golden):
    out = run_cli(*argv, "--quiet")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (("mollifier", "--delta", "0.05", "--samples", "1000", "--quiet"), "mollifier_0.05_1000.json"),
    (("mollifier", "--delta", "0.5", "--samples", "64", "--emit", "csv"), "mollifier_0.5_64.csv"),
])
def test_golden_smoothing_reports(argv, golden):
    out = run_cli(*argv)
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / golden).read_text()


def test_golden_gap_value_record():
    rep = mollify.gap_value_property_report(0.05, 0.1, samples=1000)
    recs = [reports.check_record("gap_value_properties", rep.pop("status"), rep)]
    assert reports.render(recs) == (GOLDEN / "gap_value_0.05_0.1_1000.json").read_text()


# (S, A3) for the solve goldens: a rational A3 (the cubic path); radical A3s
# (the sextic path), one generic and one on the cubic bound; the paired roots
# +-x0 whose negation-symmetric configurations are merged; eliminating cubics
# with a double root (x = -1 for II/III at (12, 24), x = 1/2 for I at
# (15, 15)); and A3 beyond the bound, where no configuration is real.
SOLVE_GOLDENS = {
    "rational": ("8", "1"),
    "radical": ("9", "2*sqrt(3)"),
    "radical_on_bound": ("4", "8*sqrt(3)/3"),
    "paired_roots": ("12", "0"),
    "double_root_II_III": ("12", "24"),
    "double_root_I": ("15", "15"),
    "empty": ("8", "100"),
}


@pytest.mark.parametrize("case", sorted(SOLVE_GOLDENS))
def test_golden_solve_reports(case, capsys):
    # The three systems' reports, in order I, II, III, one after the other.
    S, A3 = SOLVE_GOLDENS[case]
    for tag in ("I", "II", "III"):
        assert cli.main(["solve", "--system", tag, "--S", S, "--A3", A3, "--quiet"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"solve_{case}.json").read_text()


def _call_report(func: str, args: list) -> tuple[str, int]:
    """The report of a module function with no subcommand, rendered as one record."""
    if func == "case_branch_identities":
        rep = configsolve.case_branch_identities(configsolve.ScalarParams.make(*args))
        name = "case_branch_identities"
    else:
        delta, eps0, samples = args
        rep = mollify.gap_value_property_report(delta, eps0, samples=samples)
        name = "gap_value_properties"
    recs = [reports.check_record(name, rep.pop("status"), rep)]
    return reports.render(recs), reports.exit_code(recs)


def _cli_streams(argv: list, capsys) -> tuple[str, str, int]:
    """stdout, stderr and exit code of `main(argv)`, as the command line sees them."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:            # --help exits from inside argparse
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("manifest", ["solve_digests.json", "report_digests.json",
                                      "sweep_digests.json", "identity_digests.json",
                                      "examples_digests.json", "help_digests.json"])
def test_solve_reports_match_the_digest_manifest(manifest, capsys, monkeypatch):
    # Report sha256 and exit code of every distinct solve argv of the
    # benchmark's sweep seeds 1-10 (solve_digests), of its certify li
    # --cross-check and certify okumura argvs plus the north-star pipeline
    # (report_digests), of its certify band, mollifier and cutoff argvs
    # and its two function-call items, given by name and arguments
    # (sweep_digests), and of verify-identities for every --which group
    # and "all" in each --mode (identity_digests), and of examples --list and
    # examples --check M --theorem T for every model and theorem
    # (examples_digests); and both streams of --help for the program and
    # each subcommand and of three usage errors (help_digests), at the
    # 80-column width argparse falls back to without a terminal.
    monkeypatch.setenv("COLUMNS", "80")
    differ = []
    for entry in json.loads((GOLDEN / manifest).read_text()):
        if "stderr_sha256" in entry:
            out, err, code = _cli_streams(entry["argv"], capsys)
            got = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)] + [code]
            if got != [entry["stdout_sha256"], entry["stderr_sha256"], entry["exit"]]:
                differ.append(" ".join(entry["argv"]))
            continue
        if "call" in entry:
            text, code = _call_report(entry["call"], entry["args"])
            label = f"{entry['call']}{tuple(entry['args'])}"
        else:
            code = cli.main(entry["argv"] + ["--quiet"])
            text, label = capsys.readouterr().out, " ".join(entry["argv"])
        if (hashlib.sha256(text.encode()).hexdigest(), code) != (entry["sha256"], entry["exit"]):
            differ.append(label)
    assert not differ


@pytest.mark.parametrize("argv", [["--S", "12", "--A3", "0"], ["--S", "8", "--A3", "1"],
                                  ["--S", "8", "--A3", "sqrt(3)", "--precision", "1e-9"]])
def test_solve_encloses_each_configuration_once_at_its_precision(monkeypatch, capsys, argv):
    # The report renders the member enclosures solve_system computed; the
    # finer ones power_sum_intervals asks for are not counted.
    calls = []
    enclose = configsolve.CurvatureConfig.lambda_intervals

    def spy(cfg, precision):
        calls.append((id(cfg), precision))
        return enclose(cfg, precision)

    monkeypatch.setattr(configsolve.CurvatureConfig, "lambda_intervals", spy)
    for system in ("I", "II", "III"):
        calls.clear()
        assert cli.main(["solve", "--system", system, *argv, "--quiet"]) == 0
        [rec] = json.loads(capsys.readouterr().out)
        precision = cli._PRECISION(argv[argv.index("--precision") + 1] if "--precision" in argv else "1e-12")
        at_precision = [cfg for cfg, eps in calls if eps == precision]
        assert len(at_precision) == len(set(at_precision)) == rec["count"]


def test_a_square_radicand_solves_like_its_rational_root(capsys):
    # sqrt(4) is the rational 2: one report and the cubic, not the sextic.
    for radical, rational in (("sqrt(4)", "2"), ("3*sqrt(9/4)/2", "9/4")):
        outs = []
        for A3 in (radical, rational):
            assert cli.main(["solve", "--system", "II", "--S", "8", "--A3", A3, "--quiet"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_removed_near_radius_flag_is_a_usage_error():
    out = run_cli("certify", "okumura", "--near-radius", "1e-3", "--quiet")
    assert out.returncode == 64
    assert out.stdout == ""


def test_okumura_max_depth_is_a_usage_error(tmp_path, capsys):
    # The exact okumura certificate splits no cell, so a depth is refused,
    # from the command line or from a config file, not silently ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_depth = 60\n")
    for extra in (["--max-depth", "60"], ["--config", str(cfg)]):
        assert cli.main(["certify", "okumura", "--quiet", *extra]) == reports.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "max_depth" in err
    assert cli.main(["certify", "okumura", "--quiet"]) == 0


@pytest.mark.parametrize("kind", [["okumura"], ["band", "--quantity", "B1g"]])
def test_okumura_and_band_margin_is_a_usage_error(kind, tmp_path, capsys):
    # Neither proof has a bound to reach, so a margin is refused rather than
    # accepted and dropped; li keeps it (0.5 is above its certified bound).
    cfg = tmp_path / "run.cfg"
    cfg.write_text("margin = 0.5\n")
    for extra in (["--margin", "0.5"], ["--config", str(cfg)]):
        assert cli.main(["certify", *kind, "--quiet", *extra]) == reports.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "margin" in err
    assert cli.main(["certify", *kind, "--quiet"]) == 0
    capsys.readouterr()
    assert cli.main(["certify", "li", "--quiet", "--config", str(cfg)]) == reports.EXIT_INCONCLUSIVE
    rec = json.loads(capsys.readouterr().out)[0]
    assert (rec["margin"], rec["status"]) == (0.5, "inconclusive")


def test_summary_goes_to_stdout_with_out_file(tmp_path):
    path = tmp_path / "report.json"
    out = run_cli("certify", "li", "--S", "20", "--tau", "0.5", "--out", str(path))
    assert out.returncode == 0
    assert "proved" in out.stdout          # human summary on stdout
    assert json.loads(path.read_text())[0]["status"] == "proved"


@pytest.mark.parametrize("fault", [
    ZeroDivisionError("pole: denominator l1 - l2 vanishes at the given point"),
    MonomialOverflowError(),
    reports.InternalError("record 'x': payload 'status' contradicts the record"),
    KeyError("x"),
    RuntimeError("sampler acceptance rate too low"),
    # Inputs are checked when parsed, so a ValueError or ZeroDivisionError
    # raised by the run is a fault of the program too.
    ValueError("form still contains connection generators"),
    ZeroDivisionError("x"),
])
def test_internal_faults_exit_70(monkeypatch, capsys, fault):
    def broken(name, mode="symbolic"):
        raise fault

    monkeypatch.setattr(identities, "verify_identity", broken)
    code = cli.main(["verify-identities", "--which", "dtheta_12", "--mode", "symbolic", "--quiet"])
    assert code == reports.EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert "internal error" in err and "usage error" not in err


@pytest.mark.parametrize("argv", [
    ["certify", "band", "--S", "-1"],
    ["certify", "li", "--cross-check", "-5"],
    ["mollifier", "--delta", "0.1", "--samples", "0"],
    ["cutoff", "--eps", "0.3", "--samples", "0"],
    ["certify", "band", "--eps0", "1/20", "--delta1", "1/10"],
    ["solve", "--system", "I", "--S", "12", "--A3", "0", "--precision", "1e-300"],
    # Positive, but the default tau or a smoothing width rounds to 0.0.
    ["pipeline", "--S", "1e-400", "--A3", "0", "--eps0", "1/10", "--delta1", "1/20"],
    ["pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1e-400"],
    # The cross-check can sample no point: the collar is empty (5 tau^2 > S),
    # a single point (5 tau^2 = S), or tau is 0 at the sampler's resolution.
    ["certify", "li", "--S", "8", "--tau", "5", "--cross-check", "10"],
    ["certify", "li", "--S", "5", "--tau", "1", "--cross-check", "5"],
    ["certify", "li", "--tau", "1e-9", "--cross-check", "50"],
    ["pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1/20", "--tau", "5"],
])
def test_bad_input_is_refused_before_the_run(tmp_path, capsys, argv):
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(path), "--quiet"]) == reports.EXIT_USAGE
    out, err = capsys.readouterr()
    assert "usage error" in err and "internal error" not in err and "division" not in err
    assert out == "" and not path.exists()


def test_li_on_an_empty_collar_is_trivial(capsys):
    assert cli.main(["certify", "li", "--S", "8", "--tau", "5", "--quiet"]) == reports.EXIT_PASS
    (rec,) = json.loads(capsys.readouterr().out)
    assert rec["status"] == "trivial" and "bound" not in rec
    assert rec["notes"] == ["empty collar: 5 tau^2 > S"]


def test_band_at_S_zero_is_trivial():
    out = run_cli("certify", "band", "--S", "0", "--quiet")
    assert out.returncode == 0
    recs = json.loads(out.stdout)
    assert len(recs) == len(certify.BAND_QUANTITIES)
    assert {r["status"] for r in recs} == {"trivial"}


def test_examples_quiet_writes_no_clause_listing(capsys):
    assert cli.main(["examples", "--check", "g4", "--theorem", "3", "--quiet"]) == reports.EXIT_PASS
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)[0]["status"] == "pass"


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_bad_worker_counts_are_usage_errors(capsys, value):
    argv = ["examples", "--list", "--quiet"]
    assert cli.main(argv + ["--threads", value]) == reports.EXIT_USAGE
    assert "internal error" not in capsys.readouterr().err


def test_config_worker_count_is_checked_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("threads = 0\n")
    assert cli.main(["examples", "--list", "--quiet", "--config", str(cfg)]) == reports.EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "--threads" in err


def test_record_payload_cannot_contradict_header():
    rec = reports.check_record("c", "proved", {"status": "proved", "cells": 3})
    assert rec == {"schema_version": reports.SCHEMA_VERSION, "name": "c",
                   "status": "proved", "cells": 3}
    for key, value in (("name", "other"), ("status", "failed"), ("schema_version", "0.9")):
        with pytest.raises(reports.InternalError):
            reports.check_record("c", "proved", {key: value})


def test_runs_in_one_process_match_fresh_processes(tmp_path, capsys):
    # The parser is built once per process; a config overlay or a usage
    # error of one run must leave nothing behind for the next.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("S = 9\nmax_depth = 12\n")
    base = ["certify", "band", "--quantity", "m0", "--quiet"]
    for argv in (base + ["--config", str(cfg)], base + ["--S", "-1"], base):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (out, err, code) == (fresh.stdout, fresh.stderr, fresh.returncode)
    assert code == 0 and json.loads(out)[0]["region"]["S"] == "8"


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _subcommand_flags(parser, command: str) -> list[str]:
    return [a.dest for a in _subparsers(parser)[command]._actions if a.dest != "help"]


def test_config_presets_a_flag_of_a_subcommand_not_yet_run(tmp_path, capsys):
    # A new parser holds no subcommand's flags; the config overlay adds the
    # chosen one's before it reads them, so it can preset a required flag.
    cli.build_parser.cache_clear()
    assert _subcommand_flags(cli.build_parser(), "cutoff") == []
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps = 0.1\nsamples = 64\n")
    assert cli.main(["cutoff", "--config", str(cfg), "--quiet"]) == reports.EXIT_PASS
    from_file = capsys.readouterr().out
    assert cli.main(["cutoff", "--eps", "0.1", "--samples", "64", "--quiet"]) == reports.EXIT_PASS
    assert from_file == capsys.readouterr().out


def test_each_parser_adds_a_subcommands_flags_once(capsys):
    # Subcommands run one after another in one process, as the benchmark's
    # children run them; a cleared cache builds a parser without flags.
    cli.build_parser.cache_clear()
    first = cli.build_parser()
    runs = [["examples", "--list"], ["cutoff", "--eps", "0.1", "--samples", "64"], ["examples", "--list"]]
    outs = []
    for argv in runs:
        assert cli.main(argv + ["--quiet"]) == reports.EXIT_PASS
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]
    common = ["out", "config", "threads", "quiet"]
    assert _subcommand_flags(first, "examples") == ["list", "check", "theorem", *common]
    assert _subcommand_flags(first, "cutoff") == ["eps", "samples", "emit", *common]
    assert _subcommand_flags(first, "solve") == []
    cli.build_parser.cache_clear()
    second = cli.build_parser()
    assert second is not first and _subcommand_flags(second, "examples") == []
    assert cli.main(runs[0] + ["--quiet"]) == reports.EXIT_PASS
    assert capsys.readouterr().out == outs[0]
    assert _subcommand_flags(second, "examples") == _subcommand_flags(first, "examples")
    for command in _subparsers(first):
        helps = [_subparsers(ap)[command].with_flags().format_help() for ap in (first, second)]
        assert helps[0] == helps[1] and _subcommand_flags(second, command)


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--mode", "both"],
    ["pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1/20", "--samples", "200"],
])
def test_mode_free_identities_are_computed_once(monkeypatch, capsys, argv):
    # The contraction and gap-derivative checks ignore the mode: each is
    # verified once and reported under both modes; the others once per mode.
    calls = []
    verify = identities.verify_identity

    def spy(name, mode="symbolic"):
        calls.append(name)
        return verify(name, mode)

    monkeypatch.setattr(identities, "verify_identity", spy)
    assert cli.main(argv + ["--quiet"]) == reports.EXIT_PASS
    checks = {}
    for rec in json.loads(capsys.readouterr().out):
        checks.update(rec.get("checks", {}) if rec["name"] in cli.IDENTITY_GROUPS else {})
    assert sorted(checks) == sorted(f"{n}.{m}" for n in identities.IDENTITY_NAMES
                                    for m in ("symbolic", "expanded"))
    for name in identities.IDENTITY_NAMES:
        assert calls.count(name) == (1 if name in identities.MODE_FREE_NAMES else 2)
    assert all(checks[f"{name}.expanded"] == dict(checks[f"{name}.symbolic"], mode="expanded")
               for name in identities.MODE_FREE_NAMES)


def test_exact_layer_imports_no_numpy():
    # The exact modules, imported together in a fresh interpreter, load no
    # float layer: no exact result can depend on numpy or interval floats.
    exact = ("algebraic", "exactalg", "upoly", "frameforms", "identities", "configsolve",
             "geomex", "reports")
    code = (f"import importlib, sys\nfor m in {exact!r}: importlib.import_module('isocert.' + m)\n"
            "print(sorted(m for m in ('numpy', 'isocert.vinterval') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=600)
    assert out.stdout == "[]\n"
