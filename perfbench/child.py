"""One fresh interpreter of the benchmark: import isocert, run a job, report.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py SPAWN_NS [--probe]

SPAWN_NS is the CLOCK_MONOTONIC time in nanoseconds at which the parent
spawned this process, so set-up time covers interpreter start-up and
``import isocert.cli``.  With --probe the process stops after the import.
Otherwise it reads a job as JSON from standard input ({"run_id", "trace",
"trace_path", "workload", "items"}) and prints one JSON result line.
"""

import sys
import time

import isocert.cli  # noqa: E402  (the import being timed)

_IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call(func: str, args: list) -> tuple[str, int]:
    """Render the record of a module function that has no subcommand."""
    from isocert import configsolve, mollify, reports

    if func == "case_branch_identities":
        rep = configsolve.case_branch_identities(configsolve.ScalarParams.make(*args))
        name = "case_branch_identities"
    elif func == "gap_value_property_report":
        delta, eps0, samples = args
        rep = mollify.gap_value_property_report(delta, eps0, samples=samples)
        name = "gap_value_properties"
    else:
        raise ValueError(f"unknown call item {func!r}")
    recs = [reports.check_record(name, rep.pop("status"), rep)]
    return reports.render(recs), reports.exit_code(recs)


def _run_item(item: dict) -> tuple[str, int]:
    if item["kind"] == "call":
        return _call(item["func"], item["args"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = isocert.cli.main(item["argv"] + ["--quiet"])
    return out.getvalue(), code


def _check(item: dict, text: str, code: int) -> tuple[int, list[str]]:
    """Failed checks of one item's report; every record is one check."""
    expected = item["records"]
    if code != 0:
        return expected, [f"exit code {code}"]
    try:
        recs = json.loads(text)
    except ValueError:
        return expected, ["report is not JSON"]
    per_record = [workloads.record_problems(rec) for rec in recs]
    problems = [p for probs in per_record for p in probs]
    if len(recs) != expected:       # missing or extra records: no check holds
        return expected, problems + [f"{len(recs)} records, expected {expected}"]
    return sum(1 for probs in per_record if probs), problems


def run_job(job: dict) -> dict:
    tracer, run_item = None, _run_item
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer, job["workload"])
        run_item = tracer.wrap("bench.item", _run_item, tracing.SPAN,
                               after=lambda t, args, res: {"key": workloads.item_key(args[0])})
    results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for item in job["items"]:
        key = workloads.item_key(item)
        start = time.perf_counter()
        try:
            text, code = run_item(item)
            failed, problems = _check(item, text, code)
            digest = hashlib.sha256(text.encode()).hexdigest()
        except Exception:  # a crashing item fails all its checks; the run goes on
            failed, problems, digest = item["records"], [traceback.format_exc()], None
        results.append({"key": key, "records": item["records"], "failed": failed,
                        "problems": problems, "sha256": digest,
                        "wall_s": time.perf_counter() - start})
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if tracer:
        tracer.write(job["trace_path"])
    return {"wall_s": wall, "cpu_s": cpu, "items": results,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    setup_s = (_IMPORTED_NS - int(sys.argv[1])) / 1e9
    if "--probe" in sys.argv[2:]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run_job(json.load(sys.stdin))
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
