"""The benchmark's correctness gate reads the machine reports of ``ramify``,
``recover``, ``dominance`` and ``tan-check``; a report change that breaks it
must fail here, not only in the slow benchmark smoke test."""

import pytest

from helpers import load_perfbench
from tansec.cli import main


@pytest.mark.parametrize("family", ["full", "param-flat"])
@pytest.mark.parametrize("command", ["ramify", "recover"])
def test_benchmark_check_accepts_the_reports(tmp_path, capsys, command, family):
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = gen.make_jobs("recover", 1, tmp_path, rounds=1)
    job = next(j for j in jobs if j["command"] == command and j["family"] == family and j["n"] == 2)
    code = main(job["argv"])
    report, reason = check.check_job(job, code, capsys.readouterr().out, None)
    assert reason is None
    assert check.roots_found(report) == job["bezout"] == 4


@pytest.mark.parametrize("family", ["param-flat", "param-bent"])
@pytest.mark.parametrize("n", [1, 2])
def test_benchmark_check_accepts_param_dominance(tmp_path, capsys, family, n):
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = gen.make_jobs("certify", 1, tmp_path, rounds=1)
    job = next(j for j in jobs if j["command"] == "dominance" and j["family"] == family and j["n"] == n)
    code = main(job["argv"])
    report, reason = check.check_job(job, code, capsys.readouterr().out, None)
    assert reason is None
    assert report["verdict"] == "holds"


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_benchmark_check_accepts_graph_dominance(tmp_path, capsys, n):
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = gen.make_jobs("certify", 1, tmp_path, rounds=1)
    job = next(j for j in jobs if j["command"] == "dominance" and j["family"] == "full" and j["n"] == n)
    code = main(job["argv"])
    report, reason = check.check_job(job, code, capsys.readouterr().out, None)
    assert reason is None
    assert report["verdict"] == "holds"


@pytest.mark.parametrize(
    "command,family,n", [("recover", "full", 3), ("recover", "full", 4), ("ramify", "param-bent", 2)]
)
def test_benchmark_check_accepts_the_larger_root_sets(tmp_path, capsys, command, family, n):
    # every round-0 job of the kind, complete root set or not
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = gen.make_jobs("recover", 1, tmp_path, rounds=1)
    jobs = [j for j in jobs if j["command"] == command and j["family"] == family and j["n"] == n]
    assert jobs
    for job in jobs:
        code = main(job["argv"])
        report, reason = check.check_job(job, code, capsys.readouterr().out, None)
        assert reason is None
        ram = report["checks"]["ramification"]
        assert 0 < check.roots_found(report) == ram["count"] <= ram["bezout"]


def test_benchmark_check_accepts_every_round0_tan_check(tmp_path, capsys):
    # graph full and degenerate at n = 2, 4, 5, 6, 8 and param-flat and
    # param-bent at n = 1, 2: the gate's fullness method (float_sampling on
    # param files) and its bundle_rank_cross_check verdict
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = [j for j in gen.make_jobs("certify", 1, tmp_path, rounds=1) if j["command"] == "tan-check"]
    assert sorted((j["family"], j["n"]) for j in jobs) == sorted(
        [(family, n) for family in ("full", "degenerate") for n in (2, 4, 5, 6, 8)]
        + [(family, n) for family in ("param-flat", "param-bent") for n in (1, 2)]
    )
    for job in jobs:
        code = main(job["argv"])
        report, reason = check.check_job(job, code, capsys.readouterr().out, None)
        assert reason is None, (job["family"], job["n"], reason)
        cross = report["checks"]["bundle_rank_cross_check"]
        assert cross["verdict"] == "holds"
        assert (cross["witness"] is not None) == (report["verdict"] == "holds")


def test_benchmark_check_accepts_every_round0_recover_job(tmp_path, capsys):
    # every job kind of the recover workload: ramify and recover on full
    # graphs n = 1-4 and on param-flat n = 1, 2, and ramify on param-bent
    # n = 1, 2; each root set holds at most the Bezout number of points, the
    # one gen.py expects where it gives one
    gen, check = load_perfbench("gen"), load_perfbench("check")
    jobs = gen.make_jobs("recover", 1, tmp_path, rounds=1)
    kinds = {(j["command"], j["family"], j["n"]) for j in jobs}
    assert kinds == {(c, "full", n) for c in ("ramify", "recover") for n in (1, 2, 3, 4)} | {
        (c, "param-flat", n) for c in ("ramify", "recover") for n in (1, 2)
    } | {("ramify", "param-bent", n) for n in (1, 2)}
    for job in jobs:
        code = main(job["argv"])
        report, reason = check.check_job(job, code, capsys.readouterr().out, None)
        assert reason is None, (job["command"], job["family"], job["n"], reason)
        ram = report["checks"]["ramification"]
        assert 0 < check.roots_found(report) == ram["count"] <= ram["bezout"]
        assert job["bezout"] in (None, ram["bezout"])  # gen.py gives none for param-bent
