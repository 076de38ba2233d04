import json
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import load_perfbench
from tansec.cli import main, to_jsonable
from tansec.linalg import chordal_distance
from tansec.poly import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine(tmp_path, *argv, name="report.json"):
    path = tmp_path / name
    code = main([*argv, "--out", str(path)])
    return code, path.read_bytes()


# -- exit code contract ---------------------------------------------------------------


def test_examples_lists_registry(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("conic", "quadric-pair", "cylinder", "linear-graph"):
        assert name in out


@pytest.mark.parametrize(
    "name,expected",
    [
        ("conic", 0),
        ("perturbed-conic", 0),
        ("quadric-pair", 0),
        ("mixed-surface", 0),
        ("cylinder", 1),
        ("linear-graph", 1),
    ],
)
def test_tan_check_exit_codes_across_registry(capsys, name, expected):
    code, out, _ = run(capsys, "tan-check", "--example", name)
    assert code == expected
    assert "seed: 0" in out


def test_tan_check_cylinder_is_exact(capsys):
    code, out, _ = run(capsys, "tan-check", "--example", "cylinder")
    assert code == 1
    assert "exact_symbolic" in out
    assert '"fails"' in out


def test_tan_check_is_inconclusive_where_the_origin_is_not_generic(tmp_path, capsys):
    # f = (u1^3, u2^3) has a zero Hessian at the origin, so fullness there
    # fails, but det K = det diag(6 w1 a1, 6 w2 a2) is not zero: the witness
    # proves Tan X full
    f = tmp_path / "cubes.var"
    f.write_text("n = 2\nkind = graph\nf1 = u1^3\nf2 = u2^3\n")
    code, out, _ = run(capsys, "tan-check", str(f), "--format", "machine")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["checks"]["tangent_fullness"]["verdict"] == "fails"
    cross = report["checks"]["bundle_rank_cross_check"]
    assert cross["verdict"] == "fails" and cross["method"] == "schwartz_zippel"
    assert cross["trials"] == 1 and cross["error_bound"] is None
    w1, w2, a1, a2 = (Fraction(x) for x in cross["witness"])
    assert Fraction(cross["determinant_at_witness"]) == 36 * w1 * w2 * a1 * a2 != 0


def test_param_tan_check_holds_where_the_origin_is_not_generic(tmp_path, capsys):
    # the same surface as a parametrization: fullness samples K(w, a), which
    # has no base point, so the verdict is holds, and det K agrees exactly
    f = tmp_path / "cubes.var"
    f.write_text("n = 2\nkind = param\nf1 = u1\nf2 = u2\nf3 = u1^3\nf4 = u2^3\n")
    code, out, _ = run(capsys, "tan-check", str(f), "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "holds"
    fullness = report["checks"]["tangent_fullness"]
    assert fullness["method"] == "float_sampling" and fullness["successes"] == 100
    assert len(fullness["witness"]) == 4
    cross = report["checks"]["bundle_rank_cross_check"]
    assert cross["verdict"] == "holds" and cross["method"] == "schwartz_zippel"
    w1, w2, a1, a2 = (Fraction(x) for x in cross["witness"])
    assert Fraction(cross["determinant_at_witness"]) == 36 * w1 * w2 * a1 * a2 != 0


def test_tan_check_fails_when_fullness_holds_but_det_k_vanishes(monkeypatch, capsys):
    from tansec import cli
    from tansec.tangent import FAILS, SCHWARTZ_ZIPPEL, Certificate

    def vanishing(V, trials, rng):
        return Certificate(verdict=FAILS, method=SCHWARTZ_ZIPPEL, trials=trials, successes=0, error_bound=0.5)

    monkeypatch.setattr(cli, "bundle_rank_cross_check", vanishing)
    code, out, _ = run(capsys, "tan-check", "--example", "conic", "--trials", "3", "--format", "machine")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fails"
    assert report["checks"]["tangent_fullness"]["verdict"] == "holds"
    assert report["checks"]["bundle_rank_cross_check"] == {
        "determinant_at_witness": None,
        "error_bound": 0.5,
        "method": "schwartz_zippel",
        "trials": 3,
        "verdict": "fails",
        "witness": None,
    }


def test_parser_is_built_once_and_not_at_import(capsys):
    import subprocess
    import sys

    from tansec import cli

    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import tansec.cli as c; print(c.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert out.stdout == "0\n"
    run(capsys, "examples")
    parser = cli.build_parser()
    # errors, help and reports are the same on every call of the kept parser
    for argv in (["nosuch"], ["tan-check", "--example", "conic", "--trials", "0"], ["ramify", "--example", "conic"],
                 ["--help"], ["recover", "--help"], ["tan-check", "--example", "conic", "--format", "machine"]):
        seen = []
        for _ in range(2):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, capsys.readouterr()))
        assert seen[0] == seen[1]
    assert cli.build_parser() is parser


def test_malformed_expression_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.var"
    bad.write_text("n = 1\nkind = graph\nf1 = u1^^2\n")
    code, out, err = run(capsys, "tan-check", str(bad))
    assert code == 2
    assert "line 3" in err
    assert out == ""


def test_an_expansion_past_its_cap_exits_2_at_once(tmp_path, capsys):
    # (u1+u2+u3)^80 took about 6 s to expand; it is refused at the exponent
    bad = tmp_path / "big.var"
    bad.write_text("n = 3\nkind = graph\nf1 = (u1+u2+u3)^80\nf2 = u2^2\nf3 = u3^2\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "tan-check", str(bad))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "expansion above degree 40" in err and "line 3" in err


def test_a_sum_of_admitted_expansions_exits_2_after_building_one(tmp_path, capsys, monkeypatch):
    # each copy of (1+u1+u2+u3)^20 is admitted alone (1771 terms), but the
    # expression's MAX_TERMS budget holds one; the copies took 0.8 s each
    powers = []
    power = Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__", lambda p, e: powers.append(e) or power(p, e))
    bad = tmp_path / "copies.var"
    bad.write_text("n = 3\nkind = graph\nf1 = " + " + ".join(["(1+u1+u2+u3)^20"] * 4) + "\nf2 = u2^2\nf3 = u3^2\n")
    code, out, err = run(capsys, "tan-check", str(bad))
    assert code == 2 and out == ""
    assert "expansion above 2000 terms" in err and "line 3, column 36" in err
    assert powers == [20]


def test_a_number_past_the_int_conversion_limit_exits_2_at_its_column(tmp_path, capsys):
    bad = tmp_path / "long.var"
    bad.write_text("n = 1\nkind = graph\nf1 = u1^" + "9" * 5000 + "\n")
    code, out, err = run(capsys, "tan-check", str(bad))
    assert code == 2 and out == ""
    assert "number of more than 4300 digits" in err and "line 3, column 9" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "tan-check", "/nonexistent/path.var")
    assert code == 2
    assert "error" in err


def test_superscript_component_key_exits_2_with_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.var"
    bad.write_text("n = 1\nkind = graph\nf\u00b2 = u1^2\n")
    code, out, err = run(capsys, "tan-check", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: unknown key 'f\u00b2' (line 3)\n"


def test_directory_as_input_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "tan-check", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_directory_as_out_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "tan-check", "--example", "conic", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_unknown_example_exits_2(capsys):
    from tansec import registry

    code, _, err = run(capsys, "tan-check", "--example", "nope")
    assert code == 2
    assert err.startswith("error: no built-in example named 'nope'")
    assert all(name in err for name in registry.names())


def test_key_error_inside_a_command_is_not_an_input_error(monkeypatch, capsys):
    # only an unknown example name is an input error; a KeyError from a bug
    # in a command propagates instead of exiting 2
    from tansec import cli

    def broken(V, args):
        raise KeyError("internal")

    _, help_text, options = cli.COMMANDS["tan-check"]
    monkeypatch.setitem(cli.COMMANDS, "tan-check", (broken, help_text, options))
    with pytest.raises(KeyError, match="internal"):
        main(["tan-check", "--example", "conic"])
    assert capsys.readouterr().err == ""


def test_nonpositive_option_values_exit_2(capsys):
    for argv in (
        ["tan-check", "--example", "conic", "--trials", "0"],
        ["dominance", "--example", "conic", "--box", "-1"],
        ["ramify", "--example", "conic", "--center", "3,5", "--starts", "0"],
        ["ramify", "--example", "conic", "--center", "3,5", "--tol", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_option_values_outside_the_float_range_exit_2(capsys):
    # inf and 1e400 (which float() reads as inf) are positive but not finite
    for argv in (
        ["dominance", "--example", "conic", "--box", "inf"],
        ["dominance", "--example", "conic", "--box", "1e400"],
        ["ramify", "--example", "conic", "--center", "3,5", "--box", "inf"],
        ["ramify", "--example", "conic", "--center", "3,5", "--tol", "inf"],
        ["recover", "--example", "conic", "--center", "3,5", "--tol", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err and "must be positive and finite" in err


def test_center_outside_the_float_range_exits_2(capsys):
    # a value that float() overflows, or a nonzero one it reads as 0 (which
    # would solve for another center)
    for command in ("ramify", "recover"):
        for center, value in (("1e400,0", "1e400"), ("1e-400,5", "1e-400"), ("1:1e-400:5", "1e-400")):
            code, out, err = run(capsys, command, "--example", "conic", "--center", center)
            assert code == 2 and out == ""
            assert err == f"error: center value {value} is outside the float range\n"
    # a subnormal value is a float, and zero is zero
    for center in ("1e-310,5", "0,5"):
        code, out, _ = run(capsys, "ramify", "--example", "conic", "--center", center, "--format", "machine")
        assert code == 0 and json.loads(out)["options"]["center"] == center


@pytest.mark.parametrize(
    "command,center,verdict",
    [
        ("tan-check", [], "inconclusive"),
        ("secant-dim", [], "inconclusive"),
        ("dominance", [], "holds"),
        ("ramify", ["--center", "0,1"], "no_solutions"),
        ("recover", ["--center", "0,1"], "insufficient_points"),
    ],
)
def test_float_overflow_prints_no_warnings(tmp_path, capsys, command, center, verdict):
    # psi = (u1, 10^306 u1^12) overflows floats away from 0; every layer
    # counts the non-finite values as failures, so numpy's overflow and
    # invalid-value warnings would only repeat that on stderr.  recover
    # proves fullness exactly (det K = -132 10^306 w^10 a), and then finds
    # no root to recover from
    f = tmp_path / "steep.var"
    f.write_text("n = 1\nkind = param\nf1 = u1\nf2 = 10^306*u1^12\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, str(f), *center, "--format", "machine")
    assert [str(w.message) for w in caught] == [] and err == ""
    assert json.loads(out)["verdict"] == verdict
    assert code == (0 if verdict == "holds" else 1)


@pytest.mark.parametrize("command", ["ramify", "dominance", "secant-dim", "tan-check"])
def test_coefficient_outside_the_float_range(tmp_path, capsys, command):
    # a coefficient past float range stops every float evaluation with an
    # input error; a graph's tan-check is exact and still runs
    f = tmp_path / "huge.var"
    f.write_text(f"n = 1\nkind = graph\nf1 = {10**309}*u1^2\n")
    code, out, err = run(capsys, command, str(f), *_input_args(command, []), "--format", "machine")
    if command == "tan-check":
        assert code == 0 and json.loads(out)["verdict"] == "holds"
        return
    assert code == 2 and out == ""
    assert err.startswith(f"error: coefficient {10**309}") and "outside the float range" in err


def test_exactly_one_input_or_exit_2(capsys):
    # the file need not exist: naming two inputs is rejected before either is read
    code, out, err = run(capsys, "tan-check", "/tmp/none.var", "--example", "conic")
    assert code == 2
    assert out == ""
    assert "/tmp/none.var" in err and "conic" in err
    code, out, err = run(capsys, "tan-check")
    assert code == 2
    assert out == "" and err == "error: provide a variety file or --example NAME\n"


# -- option contract ---------------------------------------------------------------------

# each command's tuning flags; the report's options block holds exactly these
DECLARED = {
    "tan-check": {"trials"},
    "secant-dim": {"trials"},
    "dominance": {"trials", "box"},
    "ramify": {"center", "starts", "box", "tol"},
    "recover": {"center", "starts", "box", "tol", "trials"},
}
FLAG_VALUES = {"trials": "5", "box": "2", "tol": "1e-10", "starts": "5"}


def _input_args(command, source):
    center = ["--center", "3,5"] if "center" in DECLARED[command] else []
    return [*source, *center]


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_undeclared_flags_exit_2(capsys, command):
    for flag in sorted(set(FLAG_VALUES) - DECLARED[command]):
        with pytest.raises(SystemExit) as exc:
            main([command, *_input_args(command, ["--example", "conic"]), f"--{flag}", FLAG_VALUES[flag]])
        assert exc.value.code == 2, flag
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_options_block_is_the_declared_flags(tmp_path, capsys, command):
    # for graph and param inputs alike; a param chart's base point is part
    # of the dominance certificate, not an option
    param = tmp_path / "scaled.var"
    param.write_text("n = 1\nkind = param\nf1 = 2*u1\nf2 = u1^2\n")
    for source in (["--example", "conic"], [str(param)]):
        flags = [f"--{f}={FLAG_VALUES[f]}" for f in sorted(DECLARED[command] - {"center"})]
        argv = [command, *_input_args(command, source), *flags, "--format", "machine"]
        _, out, _ = run(capsys, *argv)
        report = json.loads(out)
        options = report["options"]
        assert set(options) == DECLARED[command]
        for flag in DECLARED[command] - {"center"}:
            assert options[flag] == json.loads(FLAG_VALUES[flag])
        if command == "dominance":
            details = report["checks"]["dominance"]["details"]
            assert details.get("chart_base_point") == ([0.0] if source[0] == str(param) else None)


def test_bad_center_exits_2(capsys):
    code, _, err = run(capsys, "ramify", "--example", "conic", "--center", "1,2,3,4")
    assert code == 2
    assert "center" in err
    code, _, err = run(capsys, "ramify", "--example", "conic", "--center", "x,y")
    assert code == 2
    # the separator decides the form: ',' takes 2n affine values and ':'
    # takes 2n+1 projective ones, whatever the count
    for center, got in (("1:3", 2), ("1,3,5", 3)):
        code, _, err = run(capsys, "ramify", "--example", "conic", "--center", center)
        assert code == 2
        assert err == f"error: center needs 2 affine or 3 projective values, got {got}\n"


def test_center_starting_with_minus_in_either_form(tmp_path):
    # argparse alone reads a separate '-1/4,1' as an option and exits 2
    code1, separate = machine(tmp_path, "ramify", "--example", "conic", "--center", "-1/4,1", name="a.json")
    code2, joined = machine(tmp_path, "ramify", "--example", "conic", "--center=-1/4,1", name="b.json")
    assert code1 == code2 == 0
    assert separate == joined


@pytest.mark.parametrize("command", ["ramify", "recover"])
def test_ramification_block_keys(tmp_path, capsys, command):
    # w -> (w + w^2, w^2) has its ramification points at complex w, where a
    # chart inversion started at a real point stalls; in parameter space no
    # start fails and both finite roots of the Bezout number 4 are found, a
    # conjugate pair, so the second is listed as the first one's image; the
    # block's keys are pinned, so that a change to them is deliberate
    f = tmp_path / "bent.var"
    f.write_text("n = 1\nkind = param\nf1 = u1 + u1^2\nf2 = u1^2\n")
    s = 3**0.5 / 2
    for center, roots in (("1/2,1", (complex(-0.5, s), complex(-0.5, -s))), ("1,2", (-1 + 1j, -1 - 1j))):
        argv = [command, str(f), "--center", center, "--starts", "8", "--format", "machine"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        checks = json.loads(out)["checks"]
        ram = checks["ramification"]
        assert set(ram) == {"bezout", "complete", "converged", "count", "images", "points", "residuals", "starts"}
        assert ram["count"] == 2 and ram["images"] == 1
        assert ram["bezout"] == 4 and ram["complete"] is False and ram["starts"] == 8
        points = [complex(*p[0]) for p in ram["points"]]
        for root in roots:
            assert min(abs(w - root) for w in points) < 1e-9
        if command == "ramify":
            assert checks["tangent_membership"] == {"verified": 2, "total": 2}
        else:
            rec = np.array([complex(re, im) for re, im in checks["roundtrip"]["recovered"]])
            truth = [1.0] + [float(Fraction(c)) for c in center.split(",")]
            assert chordal_distance(rec, truth) <= 1e-8


def test_recover_conic_center(capsys):
    code, out, _ = run(capsys, "recover", "--example", "conic", "--center", "3,5", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "success"
    rec = np.array([complex(re, im) for re, im in report["checks"]["roundtrip"]["recovered"]])
    assert chordal_distance(rec, [1.0, 3.0, 5.0]) <= 1e-9


def test_recover_cylinder_hypothesis_not_met(capsys):
    code, out, _ = run(
        capsys, "recover", "--example", "cylinder", "--center", "1,1,1,1", "--format", "machine"
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "hypothesis_not_met" and "ramification" not in report["checks"]
    # det K vanishes identically: the Schwartz-Zippel bound (3 / 201)^100
    fullness = report["checks"]["tangent_fullness"]
    assert (fullness["method"], fullness["verdict"], fullness["witness"]) == ("schwartz_zippel", "fails", None)
    assert fullness["error_bound"] == (3 / 201) ** 100


def test_recover_proves_fullness_where_the_origin_is_not_generic(tmp_path, capsys):
    # f = (u1^3, u2^3): det H vanishes at the origin, det K = 36 w1 w2 a1 a2
    # does not, and the center is recovered from all nine roots
    f = tmp_path / "cubes.var"
    f.write_text("n = 2\nkind = graph\nf1 = u1^3\nf2 = u2^3\n")
    code, out, _ = run(capsys, "recover", str(f), "--center", "1/3,2/5,1/7,3/4", "--format", "machine")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "success"
    fullness = report["checks"]["tangent_fullness"]
    assert (fullness["method"], fullness["verdict"], fullness["error_bound"]) == ("schwartz_zippel", "holds", None)
    w1, w2, a1, a2 = map(int, fullness["witness"])
    assert fullness["details"] == {"determinant_at_witness": str(36 * w1 * w2 * a1 * a2)}
    assert report["checks"]["ramification"]["count"] == 9 and report["checks"]["ramification"]["complete"]
    assert report["checks"]["roundtrip"]["distance"] <= 1e-9


def test_ramify_conic_machine_report(capsys):
    code, out, _ = run(
        capsys, "ramify", "--example", "conic", "--center", "3,5", "--format", "machine"
    )
    assert code == 0
    report = json.loads(out)
    pts = sorted(p[0][0] for p in report["checks"]["ramification"]["points"])
    assert abs(pts[0] - 1) < 1e-9 and abs(pts[1] - 5) < 1e-9
    assert report["checks"]["tangent_membership"]["verified"] == 2


def test_secant_dim_command(capsys):
    code, out, _ = run(capsys, "secant-dim", "--example", "quadric-pair", "--trials", "30", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["secant_dimension"]["estimate"] == 4


def test_dominance_command(capsys):
    code, out, _ = run(capsys, "dominance", "--example", "mixed-surface", "--trials", "40", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["dominance"]["verdict"] == "holds"
    assert report["checks"]["jacobian_agreement"]["max_relative_error"] <= 1e-6
    code, _, _ = run(capsys, "dominance", "--example", "cylinder", "--trials", "40")
    assert code == 1


def test_dominance_cross_check_counts_evaluation_failures(capsys):
    # the cylinder's graph-map Jacobian is singular everywhere, so every
    # finite-difference sample raises; the check must say so rather than
    # report a clean zero error
    code, out, _ = run(capsys, "dominance", "--example", "cylinder", "--trials", "20", "--format", "machine")
    assert code == 1
    check = json.loads(out)["checks"]["jacobian_agreement"]
    assert check["samples"] == check["evaluation_failures"] == 20
    assert check["agreeing"] == 0 and check["verdict"] == "fails"
    code, out, _ = run(capsys, "dominance", "--example", "mixed-surface", "--trials", "20", "--format", "machine")
    assert "evaluation_failures" not in json.loads(out)["checks"]["jacobian_agreement"]


def test_dominance_cross_check_on_cubic_graph(tmp_path, capsys):
    # with the plain central difference alone, one of these ten samples
    # disagrees with the closed form by 2.7e-6 and the verdict is "fails"
    f = tmp_path / "cubic.var"
    f.write_text(
        "n = 2\nkind = graph\n"
        "f1 = 1/2*u1^2*u2 + 2/3*u1^2 + u1*u2 + 3/2*u2^2\n"
        "f2 = 1/2*u1^3 + u2^3 - 2/3*u1^2 - 3/2*u1*u2 - 4*u2^2\n"
    )
    code, out, _ = run(capsys, "dominance", str(f), "--seed", "12", "--trials", "10", "--format", "machine")
    assert code == 0
    check = json.loads(out)["checks"]["jacobian_agreement"]
    assert check["verdict"] == "holds" and check["agreeing"] == 10
    assert check["max_relative_error"] <= 1e-6


def test_graph_dominance_report_matches_golden(tmp_path):
    # the graph path of dominance and its agreement check, byte for byte
    argv = ["dominance", "--example", "mixed-surface", "--seed", "11", "--trials", "25", "--format", "machine"]
    code, report = machine(tmp_path, *argv)
    assert code == 0
    assert report == (GOLDEN / "mixed-surface.dominance.json").read_bytes()


def test_param_dominance_report_matches_golden(tmp_path):
    # taken when the chart's base point was an option; only that key moved,
    # into the dominance certificate's details
    argv = ["dominance", str(GOLDEN / "cusp-surface.var"), "--seed", "5", "--trials", "25", "--format", "machine"]
    code, report = machine(tmp_path, *argv)
    assert code == 0
    golden = json.loads((GOLDEN / "cusp-surface.dominance.json").read_bytes())
    base = golden["options"].pop("chart_base_point")
    assert base == [9.0, -2.0]  # the origin is not immersive
    golden["checks"]["dominance"]["details"]["chart_base_point"] = base
    assert report == (json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("command", ["tan-check", "secant-dim", "ramify", "recover"])
def test_only_dominance_builds_a_chart(tmp_path, capsys, monkeypatch, command):
    # every other command takes a parametrization as given
    from tansec import cli, variety

    def refuse(*args, **kwargs):
        raise AssertionError("chart built")

    for owner, name in ((cli, "build_geometry"), (cli, "normalize_at"), (variety, "normalize_at")):
        monkeypatch.setattr(owner, name, refuse)
    f = tmp_path / "bent.var"
    f.write_text("n = 1\nkind = param\nf1 = u1 + u1^2\nf2 = u1^3 - u1\n")
    trials = ["--trials", "30"] if "trials" in DECLARED[command] else []
    code, out, _ = run(capsys, command, str(f), *_input_args(command, []), *trials, "--format", "machine")
    assert code == 0, out
    assert json.loads(out)["verdict"] in ("holds", "success")


@pytest.mark.parametrize("command", ["dominance", "secant-dim"])
def test_param_certificates_never_invert_the_chart(tmp_path, capsys, monkeypatch, command):
    # variety holds no Newton solver, so no chart can be inverted; dominance
    # samples the chart at parameter points and secant-dim takes its frames
    # from psi, so neither runs Newton at all
    from tansec import newton, projection, variety

    assert not hasattr(variety, "damped_newton") and not hasattr(variety, "stacked_newton")
    assert all(getattr(obj, "__module__", None) != newton.__name__ for obj in vars(variety).values())
    assert not hasattr(variety.NormalizedChart, "_solve_parameter")
    assert not hasattr(variety.NormalizedChart, "graph_eval")

    def refuse(*args, **kwargs):
        raise AssertionError("Newton run")

    monkeypatch.setattr(newton, "damped_newton", refuse)
    monkeypatch.setattr(projection, "stacked_newton", refuse)
    f = tmp_path / "bent.var"
    f.write_text("n = 2\nkind = param\nf1 = u1 + u2^2\nf2 = u2 - u1^2\nf3 = u1*u2\nf4 = u1^2 + u2^3\n")
    code, out, _ = run(capsys, command, str(f), "--trials", "30", "--format", "machine")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_to_jsonable_keeps_numpy_booleans_boolean():
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable(np.bool_(False)) is False
    flags = to_jsonable(np.array([True, False, True]))
    assert flags == [True, False, True] and all(type(x) is bool for x in flags)
    assert json.dumps(to_jsonable({"complete": np.int64(3) == np.int64(3)})) == '{"complete": true}'


# -- determinism -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("tan-check", "--example", "quadric-pair", "--seed", "7"),
        ("secant-dim", "--example", "mixed-surface", "--seed", "7", "--trials", "25"),
        ("dominance", "--example", "conic", "--seed", "7", "--trials", "25"),
        ("ramify", "--example", "quadric-pair", "--center", "2/5,-3/10,-1/2,7/10", "--seed", "7"),
        ("recover", "--example", "conic", "--center", "3,5", "--seed", "7"),
    ],
)
def test_machine_reports_are_byte_identical_given_seed(tmp_path, argv):
    code1, first = machine(tmp_path, *argv, name="a.json")
    code2, second = machine(tmp_path, *argv, name="b.json")
    assert code1 == code2
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 7
    assert "elapsed" not in first.decode()


GOLDEN_TAN_CHECK_QUADRIC_PAIR = (
    '{"checks":{"bundle_rank_cross_check":{"determinant_at_witness":"1088","error_bound":null,'
    '"method":"schwartz_zippel","trials":1,"verdict":"holds","witness":["-42","-6","-4","-68"]},'
    '"tangent_fullness":{"details":{"determinant":"4*u1*u2","determinant_at_witness":"4"},'
    '"error_bound":null,"method":"exact_symbolic","successes":1,"tolerance":null,"trials":1,'
    '"verdict":"holds","witness":["1","1"]}},"command":"tan-check","input":{"components":["u1^2","u2^2"],'
    '"digest":"891445e521767e42b9fcdd8847983bfbc26c570e23a5145010d990126e431b20","kind":"graph","n":2,'
    '"name":"quadric-pair"},"options":{"trials":100},"seed":7,"verdict":"holds"}\n'
)


def test_exact_machine_report_matches_golden(tmp_path):
    # exact Gaussian-rational output with no floats, so it is the same on
    # every platform; pins the certificate serialization and the options block
    code, report = machine(tmp_path, "tan-check", "--example", "quadric-pair", "--seed", "7")
    assert code == 0
    assert report.decode() == GOLDEN_TAN_CHECK_QUADRIC_PAIR


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["dense-n4", "dense-n5", "degenerate-n5"])
def test_tan_check_determinants_match_golden(tmp_path, name):
    # dense graphs with mixed denominators and an imaginary coefficient: the
    # n = 4 report pins the symbolic determinant (exact_symbolic), the n = 5
    # one the Schwartz-Zippel determinant at its witness, so a determinant
    # that is not divided back by its row scales changes the bytes; the
    # degenerate n = 5 graph, not normalized, pins both identity tests'
    # failing certificates (trials, error_bound and the fullness box)
    code, report = machine(tmp_path, "tan-check", str(GOLDEN / f"{name}.var"), "--seed=3", "--trials=10")
    golden = (GOLDEN / f"{name}.tan-check.json").read_bytes()
    assert report == golden
    assert code == (0 if json.loads(golden)["verdict"] == "holds" else 1)


def test_machine_report_records_input_digest(tmp_path, capsys):
    # the same variety via file and via registry hashes identically
    text = "name = conic\ndescription = parabola graph; a conic curve in the projective plane\nn = 1\nkind = graph\nf1 = u1^2\n"
    f = tmp_path / "conic.var"
    f.write_text(text)
    code, out, _ = run(capsys, "tan-check", str(f), "--format", "machine")
    assert code == 0
    from_file = json.loads(out)
    code, out, _ = run(capsys, "tan-check", "--example", "conic", "--format", "machine")
    from_registry = json.loads(out)
    assert from_file["input"]["digest"] == from_registry["input"]["digest"]


# -- parametrized inputs -----------------------------------------------------------------


def test_param_kind_end_to_end(tmp_path, capsys):
    f = tmp_path / "scaled.var"
    f.write_text("n = 1\nkind = param\nf1 = 2*u1\nf2 = u1^2\n")
    code, out, _ = run(capsys, "tan-check", str(f), "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["tangent_fullness"]["method"] == "float_sampling"

    code, out, _ = run(capsys, "recover", str(f), "--center", "3,5", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    recovered = report["checks"]["roundtrip"]["recovered"]
    rec = np.array([complex(re, im) for re, im in recovered])
    assert chordal_distance(rec, [1.0, 3.0, 5.0]) <= 1e-8


# -- the ramification read on the benchmark ------------------------------------------------

# (job, verdict, exit code, ramification count, starts, converged, images,
# bezout, complete) of the seed-1, round-0 recover jobs, as the solve read
# them before it took each round's stopped starts from Newton
RECOVER_ROUND_0 = [
    ("r000j00", "success", 0, 2, 1, 1, 1, 2, True),
    ("r000j01", "success", 0, 2, 1, 1, 1, 2, True),
    ("r000j02", "success", 0, 4, 4, 4, 2, 4, True),
    ("r000j03", "success", 0, 4, 36, 36, 2, 4, True),
    ("r000j04", "success", 0, 8, 24, 24, 5, 8, True),
    ("r000j05", "success", 0, 8, 25, 25, 5, 8, True),
    ("r000j06", "success", 0, 8, 8, 8, 5, 8, True),
    ("r000j07", "success", 0, 8, 3, 3, 6, 8, True),
    ("r000j08", "success", 0, 8, 41, 41, 5, 8, True),
    ("r000j09", "success", 0, 8, 9, 9, 4, 8, True),
    ("r000j10", "success", 0, 16, 20, 20, 10, 16, True),
    ("r000j11", "success", 0, 16, 18, 18, 10, 16, True),
    ("r000j12", "success", 0, 16, 19, 19, 10, 16, True),
    ("r000j13", "success", 0, 16, 30, 30, 11, 16, True),
    ("r000j14", "success", 0, 2, 5, 5, 0, 2, True),
    ("r000j15", "success", 0, 2, 1, 1, 1, 2, True),
    ("r000j16", "success", 0, 4, 34, 34, 0, 4, True),
    ("r000j17", "success", 0, 4, 12, 12, 0, 4, True),
    ("r000j18", "success", 0, 2, 8, 8, 0, 4, False),
    ("r000j19", "success", 0, 6, 8, 8, 2, 16, False),
]


def test_the_ramification_read_keeps_its_counts_on_the_benchmark(tmp_path, capsys):
    # every ramify and recover job of the benchmark's first recover round
    # keeps its verdict, exit code and the ramification block's counts
    got = []
    for job in load_perfbench("gen").make_jobs("recover", 1, tmp_path, rounds=1):
        code, out, _ = run(capsys, *job["argv"])
        report = json.loads(out)
        ram = report["checks"]["ramification"]
        counts = tuple(ram[k] for k in ("count", "starts", "converged", "images", "bezout", "complete"))
        got.append((job["id"], report["verdict"], code, *counts))
    assert got == RECOVER_ROUND_0
