"""The tansec benchmark: seeded CLI certification jobs, timed end to end.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 55 --trace 0

One process, one client, one job at a time: each job is an in-process call
``tansec.cli.main([command, file, ..., "--format=machine"])`` and the next
job starts when it returns (a closed loop).  BLAS and OpenMP are pinned to
one thread before numpy is imported.

Set-up runs ``gen.py`` in a fresh interpreter several times (interpreter
start, ``import tansec``, drawing the inputs, writing the ``.var`` files)
and reports the median as ``setup_s``.  The timed run then works through the
workload's rounds, in order, until ``--seconds`` have passed (and at least
one round is whole); the timing metrics come from the whole rounds, so
every run measures the same job mix, and are scaled to a reference host
speed measured between jobs (``hostspeed.py``).  Every job's report is checked
(``check.py``) after the timed run and its sha256 is compared with the one
recorded by earlier runs of the same source tree for the same input.

With ``--trace 1`` the run instead works through a fixed number of rounds,
running every job untraced and traced (``tracer.py``), and reports the
per-layer metrics; the counts repeat exactly for a given seed and source
tree.

The last line of stdout is the JSON result; the lines before it are the
human-readable report.  Details (provenance, every job's digest and time,
spans) go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# A timed run stops after the job in which --seconds pass once it holds a
# whole round, and at once after HARD_STOP_S, so a run ends well inside 180 s.
HARD_STOP_S = 120.0
# Rounds of jobs a traced run runs, each job untraced and traced.
TRACE_ROUNDS = {"recover": 2, "certify": 1}
# The job-time tail is taken at a fixed percentile in the middle of the
# workload's slowest stratum (recover: the four n = 4 graph jobs of 20 in a
# round; certify: the three n = 8 jobs of 26), so that it stays inside that
# stratum however many rounds the host lets a run hold.
TAIL_PERCENTILE = {"recover": 90.0, "certify": 94.0}

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402  (imports tansec lazily, after pinning)
from hostspeed import REFERENCE_S, SAMPLE_EVERY_S, HostSpeed  # noqa: E402


# -- set-up ---------------------------------------------------------------------------


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def set_up(workload: str, seed: int, out: Path, host: HostSpeed) -> tuple[list[float], list[float], list[dict]]:
    """Run the set-up SETUP_REPEATS times in fresh interpreters; return the
    wall times, the host-speed samples taken around them and the jobs the
    last one wrote."""
    times, refs = [], [host.sample()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--out", str(out), "--src", str(SRC)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=pinned_env(), capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        refs.append(host.sample())
    jobs = json.loads((out / "manifest.json").read_text())["jobs"]
    return times, refs, jobs


def slowdown(refs: list[float]) -> float:
    """How much slower than the reference host the host ran: the median
    host-speed sample over REFERENCE_S."""
    return statistics.median(refs) / REFERENCE_S


def import_tansec():
    """Import tansec from this checkout's src/ and nowhere else."""
    if not (SRC / "tansec" / "__init__.py").is_file():
        raise RuntimeError(f"no tansec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tansec
    import tansec.cli

    if Path(tansec.__file__).resolve().parent != (SRC / "tansec").resolve():
        raise RuntimeError(f"imported tansec from {tansec.__file__}, not from {SRC}")
    return tansec.cli


# -- running jobs ---------------------------------------------------------------------


def run_job(cli, job: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return {"job": job, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error, "dt": dt}


def run_rounds(cli, rounds: list[list[dict]], seconds: float, host: HostSpeed):
    """Work through rounds in order (wrapping around) until ``seconds`` have
    passed and the first round is whole; return each round's records and
    wall time, and the host-speed samples taken before the first job and
    after a job every SAMPLE_EVERY_S.  Only the last round may be cut short."""
    done = []
    refs = [host.sample()]
    t0 = last_sample = time.perf_counter()
    while True:
        start = time.perf_counter()
        records = []
        for job in rounds[len(done) % len(rounds)]:
            records.append(run_job(cli, job))
            if time.perf_counter() - last_sample >= SAMPLE_EVERY_S:
                refs.append(host.sample())
                last_sample = time.perf_counter()
            elapsed = time.perf_counter() - t0
            if elapsed > HARD_STOP_S or (done and elapsed >= seconds):
                break
        done.append((records, time.perf_counter() - start))
        if time.perf_counter() - t0 >= min(seconds, HARD_STOP_S):
            return done, refs


def run_pairs(cli, jobs: list[dict], tracer, originals: dict) -> tuple[list[dict], list[dict]]:
    """Run every job untraced and traced, alternating which goes first, so
    that drift in machine speed cancels out of the overhead ratio."""
    plain, traced = [], []
    for i, job in enumerate(jobs):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                tracing.assert_untraced(originals)
                plain.append(run_job(cli, job))
                continue
            tracer.job = job
            tracer.install()
            try:
                traced.append(run_job(cli, job))
            finally:
                tracer.uninstall()
                tracer.job = None
    return plain, traced


def evaluate(records: list[dict], store: dict) -> tuple[int, list[str]]:
    """Check every record; return (failures, reasons) and fill in digests."""
    failures = []
    for rec in records:
        job = rec["job"]
        report, reason = check.check_job(job, rec["code"], rec["stdout"], rec["error"])
        rec["sha256"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        rec["roots"] = check.roots_found(report) if report else 0
        if reason is None:
            known = store.setdefault(job["input_sha256"], rec["sha256"])
            if known != rec["sha256"]:
                reason = f"report digest {rec['sha256'][:12]} differs from {known[:12]} of an earlier run"
        rec["reason"] = reason
        if reason is not None:
            failures.append(f"{job['id']} {job['command']} n={job['n']} {job['family']}: {reason}")
    return len(failures), failures


# -- metrics --------------------------------------------------------------------------


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """Job time at the percentile (nearest rank) and the number of jobs
    beyond it."""
    ordered = sorted(times)
    idx = min(len(ordered), math.ceil(percentile / 100 * len(ordered))) - 1
    return ordered[idx], len(ordered) - idx - 1


def roots_ratio(records: list[dict]) -> tuple[int, int]:
    found = sum(rec["roots"] for rec in records if rec["job"]["bezout"])
    expected = sum(rec["job"]["bezout"] for rec in records if rec["job"]["bezout"])
    return found, expected


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tansec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def job_mix(workload: str) -> str:
    counts: dict[str, int] = {}
    for command, n, family, extra in gen.WORKLOADS[workload]:
        key = " ".join([command, f"n={n}", family, *extra])
        counts[key] = counts.get(key, 0) + 1
    return "; ".join(f"{k} x{v}" if v > 1 else k for k, v in counts.items())


# -- the two kinds of run -----------------------------------------------------------


def timed_run(cli, workload, rounds, seconds, setup, host, originals, store):
    """End-to-end metrics from an untraced, time-bounded run."""
    tracing.assert_untraced(originals)
    done, refs = run_rounds(cli, rounds, seconds, host)
    tracing.assert_untraced(originals)
    records = [rec for recs, _ in done for rec in recs]
    failed, reasons = evaluate(records, store)
    # Every job is checked; the timing metrics come from the whole rounds
    # (each one pass over the fixed job list), so each run times the same mix.
    whole = [r for r in done if len(r[0]) == len(rounds[0])] or done
    timed = [rec for recs, _ in whole for rec in recs]
    # Timings are scaled to the reference host speed (hostspeed.py) by one
    # factor per run (one for the set-up); the notes give the wall figures.
    factor = slowdown(refs)
    wall = [rec["dt"] for rec in timed]
    times = [dt / factor for dt in wall]
    tail_pct = TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(times, tail_pct)
    found, expected = roots_ratio(timed)
    n = len(records)
    setup_times, setup_refs = setup
    rows = [
        ("setup_s", statistics.median(setup_times) / slowdown(setup_refs), "s",
         f"median of {len(setup_times)}, host slowdown {slowdown(setup_refs):.3f}; wall "
         + " ".join(f"{t:.3f}" for t in setup_times)),
        ("certs_per_s", len(times) / sum(times), "1/s",
         f"{len(times)} jobs of {len(whole)} whole rounds; wall {len(wall) / sum(wall):.4g}/s, "
         "round times " + " ".join(f"{dt:.2f}" for _, dt in whole)),
        ("job_p50_s", statistics.median(times), "s", f"of those {len(times)} jobs; wall {statistics.median(wall):.4g} s"),
        ("job_tail_s", tail_s, "s",
         f"p{tail_pct:g} of those {len(times)} jobs, {beyond} beyond; wall {tail(wall, tail_pct)[0]:.4g} s"),
        ("fail_ratio", failed / n, "ratio", f"{failed} of {n} jobs"),
        # with no ramification job whose root count is known, none is missing
        ("roots_found_ratio", found / expected if expected else 1.0, "ratio",
         f"{found} of {expected} Bezout roots" if expected else "no root count to check"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process"),
        ("host_slowdown", factor, "ratio", f"median of {len(refs)} reference times over {REFERENCE_S} s"),
    ]
    lines = [f"{name:18s} {value:>12.6g} {unit:5s}  {note}" for name, value, unit, note in rows]
    # fail_ratio reaches the result line as failed / attempted; host_slowdown
    # is context for reading the wall-clock notes
    metrics = {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in rows
        if name not in ("fail_ratio", "host_slowdown")
    }
    return records, failed, reasons, metrics, lines


def traced_run(cli, jobs, originals, store, spans_path):
    """Per-layer metrics from running each job untraced and traced."""
    tracer = tracing.Tracer(originals)
    plain, traced = run_pairs(cli, jobs, tracer, originals)
    tracing.assert_untraced(originals)
    records = plain + traced
    failed, reasons = evaluate(records, store)
    tracer.write_spans(spans_path)
    plain_s = sum(rec["dt"] for rec in plain)
    traced_s = sum(rec["dt"] for rec in traced)
    values = tracer.metrics(traced_s / plain_s)
    lines = [f"traced {len(traced)} jobs in {traced_s:.3f} s, untraced in {plain_s:.3f} s"]
    lines += [f"{name:45s} {values[name]:>14.6g} {unit}" for name, unit, _ in tracing.METRICS]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.METRICS}
    return records, failed, reasons, metrics, lines


def write_details(path: Path, prov: dict, metrics: dict, reasons: list[str], records: list[dict]) -> None:
    jobs = [
        {
            "id": rec["job"]["id"],
            "argv": [os.path.relpath(a, ROOT) if a.startswith("/") else a for a in rec["job"]["argv"]],
            "exit": rec["code"],
            "seconds": rec["dt"],
            "sha256": rec["sha256"],
            "reason": rec["reason"],
        }
        for rec in records
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"provenance": prov, "metrics": metrics, "failures": reasons, "jobs": jobs}, indent=1))


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tansec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    cli = import_tansec()
    with HostSpeed(pinned_env()) as host:
        return run(args, cli, host)


def run(args, cli, host: HostSpeed) -> int:
    originals = tracing.originals()
    prov = provenance(args)
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    setup_times, setup_refs, jobs = set_up(args.workload, args.seed, run_dir / "inputs", host)
    per_round = len(gen.WORKLOADS[args.workload])
    rounds = [jobs[i : i + per_round] for i in range(0, len(jobs), per_round)]
    # report digests of earlier runs of the same source tree, by job input
    store_path = WORK / "digests" / prov["source_sha256"][:16] / f"{args.workload}.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}

    run_job(cli, rounds[0][0])  # warm-up: first-call costs inside numpy/LAPACK
    if args.trace:
        trace_jobs = [job for rnd in rounds[: TRACE_ROUNDS[args.workload]] for job in rnd]
        records, failed, reasons, metrics, lines = traced_run(cli, trace_jobs, originals, store, run_dir / "spans.jsonl")
    else:
        records, failed, reasons, metrics, lines = timed_run(cli, args.workload, rounds, args.seconds, (setup_times, setup_refs), host, originals, store)

    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_details(result_path, prov, metrics, reasons, records)
    if not reasons:
        store_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        tmp.replace(store_path)
    digests = hashlib.sha256("".join(rec["sha256"] for rec in records).encode()).hexdigest()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"round: {job_mix(args.workload)}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    print(f"reports_sha256 {digests}")
    print("\n".join(f"FAILED {r}" for r in reasons) or "all outputs correct")
    print(f"details {os.path.relpath(result_path, ROOT)}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
