"""isocert benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  One parent process starts every
measured run as a fresh interpreter (perfbench/child.py), one at a time, so
per-process caches start cold as they do for a command-line user.

--trace 0 repeats the workload's round (fixed by the seed) for about T
seconds and prints the end-to-end metrics; --trace 1 runs one round with
the outside-in tracer and prints the per-layer metrics and the tracing
overhead.  Both
modes check every report record against the seed verdicts and compare
report digests across runs of the same source tree.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "isocert")
STATE = ".perfbench_state"

SETUP_PROBES = 25         # extra import-only interpreters per run, for setup_s
DEADLINE_S = 170          # every run ends well inside the 180 s limit
MAX_DIGESTS = 20000       # report digests kept in the state file


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    """Pinned environment: serial BLAS, fixed hash seed, default thread count."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("ISOCERT_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="src")
    return env


def _fingerprint() -> str:
    """Digest of the package source, so stored digests and timings never mix trees."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    """Starts child interpreters one at a time under a common deadline."""

    def __init__(self, started: float):
        self.env = _env()
        self.started = started
        self.child = os.path.join(HERE, "child.py")

    def _spawn(self, extra: list[str], stdin: str | None) -> tuple[dict | None, str]:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            return None, "deadline reached before start"
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, self.child, str(spawn_ns), *extra], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(stdin, timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"killed after {left:.0f} s"
        if proc.returncode != 0:
            return None, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
        try:
            return json.loads(out.strip().splitlines()[-1]), ""
        except (ValueError, IndexError):
            return None, f"unreadable result: {out[-500:]!r}"

    def probe(self) -> tuple[dict | None, str]:
        return self._spawn(["--probe"], None)

    def job(self, job: dict) -> tuple[dict | None, str]:
        return self._spawn([], json.dumps(job))


class Gate:
    """Counts attempted and failed checks; keeps report digests across runs.

    The state file holds the source fingerprint and the report digest of the
    most recent MAX_DIGESTS items seen on that tree; a later run with
    different bytes for an item fails its checks.  A changed tree starts
    from an empty store.
    """

    def __init__(self, fingerprint: str):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint = fingerprint
        self.path = os.path.join(STATE, "state.json")
        try:
            with open(self.path) as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        same_tree = store.get("fingerprint") == fingerprint
        self.digests: dict[str, str] = store.get("digests", {}) if same_tree else {}

    def child(self, items: list[dict], result: dict | None, error: str) -> None:
        """Account one child; a dead child fails every check it was given."""
        if result is None:
            n = sum(it["records"] for it in items)
            self.attempted += n
            self.failed += n
            self.problems.append(f"child failed ({n} checks): {error}")
            return
        for res in result["items"]:
            self.attempted += res["records"]
            failed = res["failed"]
            self.problems += [f"{res['key']}: {p}" for p in res["problems"]]
            digest = res["sha256"]
            if digest is not None and self.digests.setdefault(res["key"], digest) != digest:
                self.problems.append(f"{res['key']}: report bytes differ from an earlier run")
                failed = res["records"]
            self.failed += failed

    def save(self) -> None:
        """Write the store, keeping the most recently added digests."""
        keep = dict(list(self.digests.items())[-MAX_DIGESTS:])
        os.makedirs(STATE, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"fingerprint": self.fingerprint, "digests": keep}, fh)
        os.replace(tmp, self.path)


def _peak_rss_mb(results: list[dict]) -> float:
    """Largest resident set of any child; run.py's own memory is left out."""
    kb = [r["maxrss_kb"] for r in results]
    kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(kb) / 1024


def measure(args, runner: Runner, gate: Gate) -> tuple[dict, dict, list[str]]:
    """Repeat the workload's round for about --seconds in fresh interpreters.

    wall_s is the time of one round with every item at the fastest of its
    repetitions: interference from the shared machine only ever adds time,
    so per-item minima are far steadier than any statistic of whole rounds.
    """
    setups, results, rounds = [], [], []
    runner.probe()                      # warm the bytecode and file caches
    for _ in range(SETUP_PROBES):
        res, err = runner.probe()
        if res is None:
            raise RuntimeError(f"set-up probe failed: {err}")
        setups.append(res["setup_s"])
    batches = workloads.round_batches(args.workload, args.seed)
    best = [[math.inf] * len(items) for items in batches]
    t0 = time.monotonic()
    last = 0.0
    while not rounds or time.monotonic() - t0 + last <= args.seconds:
        start = time.monotonic()
        total, whole = 0.0, True
        for b, items in enumerate(batches):
            res, err = runner.job({"run_id": f"{args.workload}/{args.seed}/{len(rounds)}/{b}",
                                   "workload": args.workload, "trace": False, "items": items})
            gate.child(items, res, err)
            if res is None:
                whole = False
                continue
            results.append(res)
            setups.append(res["setup_s"])
            total += res["wall_s"]
            for i, item in enumerate(res["items"]):
                best[b][i] = min(best[b][i], item["wall_s"])
        last = time.monotonic() - start
        if whole:
            rounds.append(total)
        elif time.monotonic() - t0 > args.seconds:
            break
    if not rounds:
        raise RuntimeError("no round completed")
    metrics = {
        "wall_s": sum(t for times in best for t in times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(results),
    }
    lines = [f"{name} samples: " + " ".join(f"{v:.3f}" for v in vals)
             for name, vals in (("round wall_s", rounds), ("setup_s", setups))]
    counts = {"wall_s": len(rounds), "setup_s": len(setups),
              "peak_rss_mb": len(results) + SETUP_PROBES + 1}
    return metrics, counts, lines


def traced(args, runner: Runner, gate: Gate) -> tuple[dict, dict, list[str]]:
    """Run the workload's trace items in one interpreter with the tracer, then untraced.

    The untraced run of the same items right after the traced one gives the
    tracing overhead and the process CPU time.
    """
    items = workloads.trace_items(args.workload, args.seed)
    os.makedirs(STATE, exist_ok=True)
    trace_path = os.path.join(STATE, f"trace-{args.workload}-{args.seed}.json")
    job = {"workload": args.workload, "items": items, "trace_path": trace_path}
    runs = {}
    for mode in ("traced", "plain"):
        res, err = runner.job({**job, "run_id": f"{args.workload}/{args.seed}/{mode}",
                               "trace": mode == "traced"})
        gate.child(items, res, err)
        if res is None:
            raise RuntimeError(f"{mode} run failed: {err}")
        runs[mode] = res
    with open(trace_path) as fh:
        doc = json.load(fh)
    metrics = tracing.derive(doc)
    metrics["process.cpu_s"] = runs["plain"]["cpu_s"]
    metrics["trace.overhead_s"] = runs["traced"]["wall_s"] - runs["plain"]["wall_s"]
    missing = tracing.unexercised(doc)
    metrics["trace.unexercised"] = len(missing)
    if missing:
        gate.failed += len(missing)
        gate.attempted += len(missing)
        gate.problems.append("wrappers that saw no call: " + ", ".join(missing))
    lines = [f"traced wall {runs['traced']['wall_s']:.3f} s, untraced "
             f"{runs['plain']['wall_s']:.3f} s; {len(doc['spans'])} spans in {trace_path}"]
    if doc["absent"]:
        lines.append("wrap targets absent from the source: " + ", ".join(doc["absent"]))
    return metrics, dict.fromkeys(metrics, 1), lines


def _units(trace: int) -> dict[str, str]:
    """Names and units of the metrics this mode prints, from BENCHMARK.json."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        return _fail(f"no isocert source at {SRC}; run from the root of a source checkout")
    units = _units(args.trace)
    gate = Gate(_fingerprint())
    runner = Runner(started)
    try:
        metrics, counts, lines = (traced if args.trace else measure)(args, runner, gate)
    except RuntimeError as exc:
        for p in gate.problems:
            print(p, file=sys.stderr)
        return _fail(str(exc))
    missing = sorted(set(units) - set(metrics))
    if missing:
        return _fail("metrics not measured: " + ", ".join(missing))
    gate.save()
    print(f"isocert benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {platform.python_implementation()} {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit:<6} n={counts[name]}")
    for line in lines:
        print(line)
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"fail_frac    {frac:.4f}  ({gate.failed} of {gate.attempted} checks failed)")
    for p in gate.problems[:50]:
        print(f"FAILED CHECK: {p}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
