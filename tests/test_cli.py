"""Command-line surface: subcommands, exit codes, reports, determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

from isocert import cli, identities, reports
from isocert.exactalg import MonomialOverflowError, PoleError

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
    cfg.write_text("no_such_flag = 1\n")
    out = run_cli("certify", "li", "--config", str(cfg))
    assert out.returncode == 64
    assert "unknown key" in out.stderr


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


def test_summary_goes_to_stdout_with_out_file(tmp_path):
    path = tmp_path / "report.json"
    out = run_cli("certify", "li", "--S", "20", "--tau", "0.5", "--out", str(path))
    assert out.returncode == 0
    assert "proved" in out.stdout          # human summary on stdout
    assert json.loads(path.read_text())[0]["status"] == "proved"


@pytest.mark.parametrize("fault", [
    PoleError("l1 - l2"),
    MonomialOverflowError(),
    reports.InternalError("record 'x': payload 'status' contradicts the record"),
    KeyError("x"),
    RuntimeError("sampler acceptance rate too low"),
])
def test_internal_faults_exit_70(monkeypatch, capsys, fault):
    def broken(name, mode="symbolic"):
        raise fault

    monkeypatch.setattr(identities, "verify_identity", broken)
    code = cli.main(["verify-identities", "--which", "dtheta_12", "--mode", "symbolic", "--quiet"])
    assert code == reports.EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert "internal error" in err and "usage error" not in err


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_bad_worker_counts_are_usage_errors(monkeypatch, capsys, value):
    argv = ["examples", "--list", "--quiet"]
    assert cli.main(argv + ["--threads", value]) == reports.EXIT_USAGE
    monkeypatch.setenv(cli.THREADS_ENV, value)
    assert cli.main(argv) == reports.EXIT_USAGE
    assert "internal error" not in capsys.readouterr().err


def test_record_payload_cannot_contradict_header():
    rec = reports.check_record("c", "proved", {"status": "proved", "cells": 3})
    assert rec == {"schema_version": reports.SCHEMA_VERSION, "name": "c",
                   "status": "proved", "cells": 3}
    for key, value in (("name", "other"), ("status", "failed"), ("schema_version", "0.9")):
        with pytest.raises(reports.InternalError):
            reports.check_record("c", "proved", {key: value})
