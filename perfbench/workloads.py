"""Seeded workload generator and the verdict table the correctness gate uses.

A workload run repeats one round of batches, fixed by the seed; one batch is
what one fresh interpreter runs.  An item is either a CLI argv, passed to
``isocert.cli.main``, or a call of a module function that has no subcommand.
Every generated point lies in the admissible region of the rigidity
argument: 4 < S <= 12, 0 < A3 below the strict cubic bound
(3 A3^2 < S^3), and 0 < delta1 < eps0, so every seed verdict is
pass / proved / trivial.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("identities", "sweep")

PIPELINE_ARGV = ["pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1/20"]

# The timed identities round: every dtheta and contraction check of the
# pipeline's exact identity suite, one item per check and mode, in one
# interpreter.  dphi and dg_df_phi (a check of 2.5-7.7 s each) are left to
# the traced pipeline run: a per-item minimum needs items short enough to
# repeat several times within a run.
IDENTITY_CHECKS = tuple((group, mode)
                        for group in ("dtheta_12", "dtheta_13", "dtheta_14",
                                      "dtheta_23", "dtheta_24", "dtheta_34",
                                      "w1_phi", "w2_phi", "w3_phi", "w4_phi")
                        for mode in ("symbolic", "expanded"))

# Points per sweep batch, one from each S stratum, so batches cost about the same.
POINTS_PER_BATCH = 3
SWEEP_BATCHES = 2                             # batches in one sweep round
S_STRATA = ((17, 26), (27, 37), (38, 48))    # S = n/4, covering (4, 12]
OKUMURA_TOLS = ("1e-6", "1e-7")               # default near-radius 1e-3: see README
XCHECK_SAMPLES = 2000
SMOOTH_SAMPLES = 1000

# Record counts of each item at the seed; a missing record is a failed check.
PIPELINE_RECORDS = 43
BAND_RECORDS = 14


def _cli(argv: list[str], records: int) -> dict:
    return {"kind": "cli", "argv": list(argv), "records": records}


def _call(func: str, args: list, records: int = 1) -> dict:
    return {"kind": "call", "func": func, "args": list(args), "records": records}


def item_key(item: dict) -> str:
    """Stable identity of an item's inputs, used to compare report digests."""
    if item["kind"] == "cli":
        return "cli " + " ".join(item["argv"])
    return "call " + item["func"] + " " + " ".join(str(a) for a in item["args"])


def _draw_S(rng: random.Random, stratum: tuple[int, int]) -> Fraction:
    return Fraction(rng.randint(*stratum), 4)


def _draw_A3(rng: random.Random, S: Fraction, radical: bool, share: float) -> str:
    """A3 at about `share` of the cubic bound S^(3/2)/sqrt(3), as 'p/q' or 'k*sqrt(3)/m'."""
    top = math.sqrt(float(S) ** 3 / 3)          # the cubic bound, as a float
    if not radical:
        a3 = Fraction(max(1, math.floor(share * top * 8)), 8)
        assert 0 < a3 and 3 * a3 * a3 < S**3
        return str(a3)
    m = rng.choice((1, 2, 3, 4, 6))
    # k*sqrt(3)/m < S^(3/2)/sqrt(3)  <=>  9 k^2 < m^2 S^3.
    k = max(1, math.floor(share * top * m / math.sqrt(3)))
    assert 9 * k * k < m * m * S**3
    return f"{k}*sqrt(3)" if m == 1 else f"{k}*sqrt(3)/{m}"


def _draw_band(rng: random.Random) -> tuple[Fraction, Fraction]:
    eps0 = Fraction(1, rng.randint(2, 12))
    delta1 = eps0 * Fraction(rng.randint(1, 9), 10)
    return eps0, delta1


def _round_points(rng: random.Random, n: int):
    """n (S, A3, eps0, delta1) points, stratified in S and in A3's share of its bound.

    The band certificates cost most when A3 is near the cubic bound, so every
    round holds one point from each of n share strata of (0.05, 0.9); the
    strata are dealt to the points in a seeded order, A3 kinds alternate.
    """
    width = 0.85 / n
    strata = rng.sample(range(n), n)
    for index in range(n):
        S = _draw_S(rng, S_STRATA[index % len(S_STRATA)])
        share = rng.uniform(0.05 + width * strata[index], 0.05 + width * (strata[index] + 1))
        A3 = _draw_A3(rng, S, radical=index % 2 == 1, share=share)
        eps0, delta1 = _draw_band(rng)
        yield S, A3, eps0, delta1


def _point_items(S, A3, eps0, delta1) -> list[dict]:
    """Every per-point command: B&B certificates, root isolation, sampler, smoothing."""
    delta = float(delta1)
    items = [_cli(["certify", "band", "--quantity", "all", "--S", str(S), "--A3", A3,
                   "--eps0", str(eps0), "--delta1", str(delta1)], BAND_RECORDS)]
    items += [_cli(["certify", "okumura", "--tol", tol], 2) for tol in OKUMURA_TOLS]
    items += [_cli(["solve", "--system", tag, "--S", str(S), "--A3", A3], 1)
              for tag in ("I", "II", "III")]
    items.append(_call("case_branch_identities", [str(S), A3]))
    items.append(_cli(["certify", "li", "--S", str(S),
                       "--cross-check", str(XCHECK_SAMPLES)], 2))
    items.append(_cli(["mollifier", "--delta", repr(delta),
                       "--samples", str(SMOOTH_SAMPLES)], 1))
    items.append(_call("gap_value_property_report", [delta, float(eps0), SMOOTH_SAMPLES]))
    items.append(_cli(["cutoff", "--eps", repr(delta / 4),
                       "--samples", str(SMOOTH_SAMPLES)], 1))
    return items


def round_batches(workload: str, seed: int) -> list[list[dict]]:
    """The batches (lists of items) of one timed round of a workload, fixed by the seed."""
    if workload == "identities":                             # the seed is unused
        return [[_cli(["verify-identities", "--which", group, "--mode", mode], 1)
                 for group, mode in IDENTITY_CHECKS]]
    points = _round_points(random.Random(f"{workload}/{seed}"),
                           POINTS_PER_BATCH * SWEEP_BATCHES)
    return [[it for _ in range(POINTS_PER_BATCH) for it in _point_items(*next(points))]
            for _ in range(SWEEP_BATCHES)]


def trace_items(workload: str, seed: int) -> list[dict]:
    """The items of a traced run, all in one interpreter.

    For identities it is the whole north-star pipeline, so the pipeline's
    stages and its report are traced and checked; for the sweep, one round.
    """
    if workload == "identities":
        return [_cli(PIPELINE_ARGV, PIPELINE_RECORDS)]
    return [it for batch in round_batches(workload, seed) for it in batch]


# -- seed verdicts ---------------------------------------------------------------

def record_problems(rec: dict) -> list[str]:
    """Ways one report record differs from the verdict the seed produces."""
    name, status = rec.get("name", "?"), rec.get("status")
    if name.startswith("band_"):
        allowed = {"proved", "trivial"}
    elif name in ("gamma_Li_negative", "okumura_cubic_bound"):
        allowed = {"proved"}
    else:
        allowed = {"pass"}
    out = []
    if status not in allowed:
        out.append(f"{name}: status {status!r}, expected one of {sorted(allowed)}")
    if "residual_is_zero" in rec:
        if rec["residual_is_zero"] is not True:
            out.append(f"{name}: nonzero identity residual")
        for sub, check in rec.get("checks", {}).items():
            if check.get("residual_term_count") != 0:
                out.append(f"{name}.{sub}: {check.get('residual_term_count')} residual terms")
    for i, cfg in enumerate(rec.get("configs", ())):
        if not all(cfg.get("verified", {}).values()):
            out.append(f"{name}: configuration {i} not verified")
    if rec.get("violations"):
        out.append(f"{name}: {len(rec['violations'])} cross-check violations")
    return out
