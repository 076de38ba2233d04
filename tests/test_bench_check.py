"""The benchmark's correctness gate reads the machine reports of ``ramify``
and ``recover``; a report change that breaks it must fail here, not only in
the slow benchmark smoke test."""

import importlib.util
from pathlib import Path

import pytest

from tansec.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["full", "param-flat"])
@pytest.mark.parametrize("command", ["ramify", "recover"])
def test_benchmark_check_accepts_the_reports(tmp_path, capsys, command, family):
    gen, check = _load("gen"), _load("check")
    jobs = gen.make_jobs("recover", 1, tmp_path, rounds=1)
    job = next(j for j in jobs if j["command"] == command and j["family"] == family and j["n"] == 2)
    code = main(job["argv"])
    report, reason = check.check_job(job, code, capsys.readouterr().out, None)
    assert reason is None
    assert check.roots_found(report) == job["bezout"] == 4
