"""Command-line front end.

Subcommands mirror the certification pipeline: ``tan-check`` (fullness of the
tangent variety plus the block-matrix rank cross-check), ``secant-dim``,
``dominance``, ``ramify`` and ``recover``, plus ``examples`` for the built-in
registry.  Every randomized command prints its effective seed, and identical
(input, flags, seed) produce byte-identical machine-readable reports; timing
appears only in the human-readable output for that reason.

Exit codes: 0 when the verdict holds / the run succeeded, 1 when it failed
(including no-consensus and unmet hypotheses), 2 on input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import registry
from .errors import PolyParseError, RankDeficientJacobianError, TansecError, VarietyFileError
from .linalg import exact_rank, numerical_rank
from .newton import NewtonConfig
from .poly import GaussianRational, random_point, random_rational_point
from .projection import (
    Center,
    ramification_points,
    roundtrip,
    tangent_membership,
)
from .tangent import (
    Certificate,
    HOLDS,
    dominance_certificate,
    hessian_contraction,
    hessian_contraction_exact,
    p_jacobian_closed,
    p_jacobian_fd,
    secant_dim_estimate,
    tan_is_full,
    tangent_bundle_rank_check,
)
from .variety import GraphVariety, NormalizedChart, normalize_at
from .varfile import VarietyFile, parse_variety_file

SUCCESS_VERDICTS = ("holds", "success")
# step and tolerance of the finite-difference check of the differential of p
FD_STEP = 1e-5
FD_TOL = 1e-6


# -- serialization -------------------------------------------------------------------


def to_jsonable(obj):
    """Reduce report payloads to JSON types; complex numbers become
    [real, imag] pairs and exact scalars become strings."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, GaussianRational):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, Certificate):
        return {
            "verdict": obj.verdict,
            "method": obj.method,
            "trials": obj.trials,
            "successes": obj.successes,
            "tolerance": obj.tolerance,
            "witness": to_jsonable(obj.witness),
            "error_bound": obj.error_bound,
            "details": to_jsonable(obj.details),
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return str(obj)


def machine_bytes(report: dict) -> bytes:
    return (json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n").encode()


def render_human(report: dict, elapsed: float) -> str:
    lines = [f"command: {report['command']}"]
    src = report["input"]
    label = src.get("name") or "<file>"
    lines.append(f"input: {label} ({src['kind']}, n={src['n']}), digest {src['digest'][:12]}")
    lines.append(f"seed: {report['seed']}")
    for key, value in report["checks"].items():
        lines.append(f"{key}:")
        payload = to_jsonable(value)
        if isinstance(payload, dict):
            for k, v in payload.items():
                if v is None:
                    continue
                lines.append(f"  {k}: {json.dumps(v, sort_keys=True)}")
        else:
            lines.append(f"  {json.dumps(payload, sort_keys=True)}")
    lines.append(f"verdict: {report['verdict']}")
    lines.append(f"elapsed: {elapsed:.3f} s")
    return "\n".join(lines) + "\n"


# -- input handling ------------------------------------------------------------------


def load_variety_file(args) -> VarietyFile:
    if getattr(args, "example", None):
        return registry.get(args.example)
    if not getattr(args, "file", None):
        raise VarietyFileError("provide a variety file or --example NAME", 1)
    return parse_variety_file(Path(args.file).read_text())


def build_geometry(vf: VarietyFile, seed: int):
    """Return the object the tangent/projection operations run on.

    Graph varieties are used directly.  Parametrized ones are reduced to a
    normalized chart at the origin, or at the first immersive point of a
    seeded rational search when the origin is degenerate.
    """
    v = vf.to_variety()
    if isinstance(v, GraphVariety):
        return v, None
    rng = random.Random(seed)
    candidates = [np.zeros(v.n)] + [
        np.array([float(x) for x in random_rational_point(v.n, 10, rng)])
        for _ in range(20)
    ]
    for u0 in candidates:
        try:
            chart = normalize_at(v, u0)
            return chart, u0
        except RankDeficientJacobianError:
            continue
    raise RankDeficientJacobianError("no immersive base point found for the parametrization")


def parse_center(text: str, n: int) -> Center:
    """2n affine rationals ('3,5' or '3 5') or 2n+1 projective values ('1:3:5')."""
    sep = ":" if ":" in text else ","
    parts = [p for p in (s.strip() for s in text.split(sep)) if p]
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad center value: {exc}") from None
    floats = np.array([float(v) for v in values])
    if len(values) == 2 * n:
        return Center.from_affine(floats[:n], floats[n:])
    if len(values) == 2 * n + 1:
        return Center.from_projective(floats)
    raise ValueError(
        f"center needs {2 * n} affine or {2 * n + 1} projective values, got {len(values)}"
    )


def input_block(vf: VarietyFile) -> dict:
    return {
        "name": vf.name,
        "kind": vf.kind,
        "n": vf.n,
        "components": list(vf.exprs),
        "digest": hashlib.sha256(vf.render().encode()).hexdigest(),
    }


def emit(report: dict, args, started: float) -> int:
    elapsed = time.perf_counter() - started
    if getattr(args, "out", None):
        Path(args.out).write_bytes(machine_bytes(report))
    if getattr(args, "format", "human") == "machine":
        sys.stdout.write(machine_bytes(report).decode())
    else:
        sys.stdout.write(render_human(report, elapsed))
    return 0 if report["verdict"] in SUCCESS_VERDICTS else 1


# -- commands ------------------------------------------------------------------------


def cmd_examples(args) -> int:
    for vf in registry.BUILTINS:
        comps = ", ".join(vf.exprs)
        sys.stdout.write(f"{vf.name:17s} n={vf.n} {vf.kind:5s} [{comps}]  {vf.description}\n")
    return 0


def _bundle_cross_check(G, trials: int, rng: random.Random) -> dict:
    """rank [[E,E],[H(xi),0]] must equal n + rank H(xi) on every sample."""
    n = G.n
    matches = 0
    for _ in range(trials):
        if isinstance(G, GraphVariety):
            xi = random_rational_point(n, 100, rng)
            block_rank = tangent_bundle_rank_check(G, xi).rank
            h_rank = exact_rank(hessian_contraction_exact(G.hessian0_exact(), xi))
        else:
            xi = random_point(n, 1.0, rng)
            block_rank = tangent_bundle_rank_check(G, xi).rank
            h_rank = numerical_rank(hessian_contraction(G.hessian0(), xi)).rank
        if block_rank == n + h_rank:
            matches += 1
    return {
        "trials": trials,
        "matches": matches,
        "verdict": HOLDS if matches == trials else "fails",
    }


def cmd_tan_check(args) -> int:
    started = time.perf_counter()
    vf = load_variety_file(args)
    G, base = build_geometry(vf, args.seed)
    target = G.normalized_at_origin() if isinstance(G, GraphVariety) else G
    cert = tan_is_full(target, trials=args.trials, rng=random.Random(args.seed))
    cross = _bundle_cross_check(target, args.trials, random.Random(args.seed + 1))
    verdict = cert.verdict if cross["verdict"] == HOLDS else "fails"
    report = {
        "command": "tan-check",
        "input": input_block(vf),
        "seed": args.seed,
        "options": {"trials": args.trials},
        "checks": {"tangent_fullness": cert, "bundle_rank_cross_check": cross},
        "verdict": verdict,
    }
    if base is not None:
        report["options"]["chart_base_point"] = to_jsonable(base)
    return emit(report, args, started)


def cmd_secant_dim(args) -> int:
    started = time.perf_counter()
    vf = load_variety_file(args)
    G, base = build_geometry(vf, args.seed)
    estimate, cert = secant_dim_estimate(G, trials=args.trials, rng=random.Random(args.seed))
    report = {
        "command": "secant-dim",
        "input": input_block(vf),
        "seed": args.seed,
        "options": {"trials": args.trials},
        "checks": {"secant_dimension": {"estimate": estimate, "certificate": cert}},
        "verdict": cert.verdict,
    }
    if base is not None:
        report["options"]["chart_base_point"] = to_jsonable(base)
    return emit(report, args, started)


def cmd_dominance(args) -> int:
    started = time.perf_counter()
    vf = load_variety_file(args)
    G, base = build_geometry(vf, args.seed)
    if isinstance(G, GraphVariety):
        G = G.normalized_at_origin()
    box = args.box if args.box is not None else 0.1
    cert = dominance_certificate(G, trials=args.trials, rng=random.Random(args.seed), box=box)

    # independent validation of the closed-form differential
    rng = random.Random(args.seed + 1)
    agree = 0
    attempted = 0
    worst = 0.0
    while attempted < args.trials:
        u = random_point(G.n, box, rng)
        attempted += 1
        try:
            closed = p_jacobian_closed(G, u)
            fd = p_jacobian_fd(G, u, h=FD_STEP)
            scale = max(1.0, float(np.abs(closed).max()))
            err = float(np.abs(closed - fd).max()) / scale
            if err > FD_TOL:
                # cancel the O(h^2) truncation error of the central difference
                # (Richardson): (4 D(h/2) - D(h)) / 3
                fd = (4 * p_jacobian_fd(G, u, h=FD_STEP / 2) - fd) / 3
                err = float(np.abs(closed - fd).max()) / scale
        except TansecError:
            continue
        worst = max(worst, err)
        if err <= FD_TOL:
            agree += 1
    jac_check = {
        "samples": attempted,
        "agreeing": agree,
        "max_relative_error": worst,
        "verdict": HOLDS if attempted > 0 and agree >= int(np.ceil(0.95 * attempted)) else "fails",
    }
    both = cert.holds and jac_check["verdict"] == HOLDS
    report = {
        "command": "dominance",
        "input": input_block(vf),
        "seed": args.seed,
        "options": {"trials": args.trials, "box": box},
        "checks": {"dominance": cert, "jacobian_agreement": jac_check},
        "verdict": cert.verdict if not cert.holds else (HOLDS if both else "fails"),
    }
    if base is not None:
        report["options"]["chart_base_point"] = to_jsonable(base)
    return emit(report, args, started)


def _newton_config(args) -> NewtonConfig:
    return NewtonConfig(
        tol=args.tol if args.tol is not None else 1e-12,
        starts=args.starts,
        box=args.box if args.box is not None else 3.0,
    )


def cmd_ramify(args) -> int:
    started = time.perf_counter()
    vf = load_variety_file(args)
    G, base = build_geometry(vf, args.seed)
    center = parse_center(args.center, vf.n)
    if isinstance(G, NormalizedChart):
        center = Center(G.to_chart_point(center.proj), G.n)
    cfg = _newton_config(args)
    R = ramification_points(G, center, cfg, rng=random.Random(args.seed))
    verified = sum(1 for u in R.points if tangent_membership(G, center, u))
    verdict = "success" if R.found and verified == len(R) else ("no_solutions" if not R.found else "fails")
    report = {
        "command": "ramify",
        "input": input_block(vf),
        "seed": args.seed,
        "options": {
            "center": args.center,
            "starts": cfg.starts,
            "box": cfg.box,
            "tol": cfg.tol,
        },
        "checks": {
            "ramification": {
                "count": len(R),
                "points": R.points,
                "residuals": R.residuals,
                "starts": R.starts,
                "converged": R.converged,
                "failed": R.failed,
            },
            "tangent_membership": {"verified": verified, "total": len(R)},
        },
        "verdict": verdict,
    }
    if base is not None:
        report["options"]["chart_base_point"] = to_jsonable(base)
    return emit(report, args, started)


def cmd_recover(args) -> int:
    started = time.perf_counter()
    vf = load_variety_file(args)
    G, base = build_geometry(vf, args.seed)
    center = parse_center(args.center, vf.n)
    chart_center = center
    if isinstance(G, NormalizedChart):
        chart_center = Center(G.to_chart_point(center.proj), G.n)
    cfg = _newton_config(args)
    rt = roundtrip(G, chart_center, cfg, rng=random.Random(args.seed), trials=args.trials)
    checks = {
        "tangent_fullness": rt.fullness,
        "roundtrip": {
            "status": rt.status,
            "distance": rt.distance,
            "recovered": rt.recovered,
            "consensus": rt.consensus,
        },
    }
    if rt.ramification is not None:
        checks["ramification"] = {
            "count": len(rt.ramification),
            "points": rt.ramification.points,
            "residuals": rt.ramification.residuals,
            "starts": rt.ramification.starts,
            "converged": rt.ramification.converged,
            "failed": rt.ramification.failed,
        }
    if rt.recovered is not None and isinstance(G, NormalizedChart):
        checks["roundtrip"]["recovered_ambient"] = G.to_ambient_point(rt.recovered)
    report = {
        "command": "recover",
        "input": input_block(vf),
        "seed": args.seed,
        "options": {
            "center": args.center,
            "starts": cfg.starts,
            "box": cfg.box,
            "tol": cfg.tol,
            "trials": args.trials,
        },
        "checks": checks,
        "verdict": rt.status,
    }
    if base is not None:
        report["options"]["chart_base_point"] = to_jsonable(base)
    return emit(report, args, started)


# -- argument parsing -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_io_options(sp, needs_center: bool = False):
    sp.add_argument("file", nargs="?", help="variety definition file")
    sp.add_argument("--example", help="use a built-in example instead of a file")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sp.add_argument("--trials", type=_positive_int, default=100, help="sample count (default 100)")
    sp.add_argument("--tol", type=_positive_float, default=None, help="residual tolerance override")
    sp.add_argument("--box", type=_positive_float, default=None, help="sampling box radius override")
    sp.add_argument("--starts", type=_positive_int, default=64, help="Newton starts (default 64)")
    sp.add_argument("--out", help="also write the machine-readable report to this path")
    sp.add_argument(
        "--format", choices=("human", "machine"), default="human", help="stdout format"
    )
    if needs_center:
        sp.add_argument(
            "--center",
            required=True,
            help="projection center: 2n affine rationals 'a,b,...' or 2n+1 projective 'x0:x1:...'",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tansec",
        description="certify tangent fullness, tangent-intersection dominance, and "
        "projection-center recovery for explicitly parametrized varieties",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("examples", help="list the built-in example varieties")
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("tan-check", help="fullness of the tangent variety (exact where possible)")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_tan_check)

    sp = sub.add_parser("secant-dim", help="estimate the secant variety dimension")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_secant_dim)

    sp = sub.add_parser("dominance", help="certify dominance of the tangent-intersection map")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_dominance)

    sp = sub.add_parser("ramify", help="compute the ramification locus of a projection")
    _add_io_options(sp, needs_center=True)
    sp.set_defaults(func=cmd_ramify)

    sp = sub.add_parser("recover", help="recover a projection center from its ramification locus")
    _add_io_options(sp, needs_center=True)
    sp.set_defaults(func=cmd_recover)

    return parser


def _join_center(argv: list[str]) -> list[str]:
    """Fold '--center VALUE' into '--center=VALUE', because argparse reads a
    separate value that starts with a minus, such as '-1/4,1', as an option."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--center" else None
        out.append(token if value is None else f"--center={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_center(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (VarietyFileError, PolyParseError, ValueError, KeyError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        sys.stderr.write(f"error: {msg}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TansecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
