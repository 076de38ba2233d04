"""Command-line front end.

Subcommands mirror the certification pipeline: ``tan-check`` (fullness of the
tangent variety plus the bundle-determinant cross-check), ``secant-dim``,
``dominance``, ``ramify`` and ``recover``, plus ``examples`` for the built-in
registry.  Every randomized command prints its effective seed, and identical
(input, flags, seed) produce byte-identical machine-readable reports; timing
appears only in the human-readable output for that reason.

``COMMANDS`` declares each subcommand's options and their defaults; those are
the only tuning flags the subcommand accepts, and the report's ``options``
block records exactly them:

    tan-check, secant-dim   --trials 100
    dominance               --trials 100  --box 0.1
    ramify                  --center      --starts 64  --box 3.0  --tol 1e-12
    recover                 --center      --starts 64  --box 3.0  --tol 1e-12  --trials 100

Every subcommand but ``examples`` also takes a variety file or ``--example``,
and ``--seed``, ``--format`` and ``--out``.

Only ``dominance`` builds a graph chart (``build_geometry``); for a
parametrized input its ``--box`` is a radius in parameter space around the
base point its certificate's details give as ``chart_base_point``, and its
``witness`` is a parameter point w, as ``ramify`` points are.

``tan-check`` cross-checks fullness (a graph's Hessian at the origin, or
sampled K(w, a) = [Dpsi + D2psi[a, .] | Dpsi] of a parametrization) with the
exact det K, the Jacobian determinant of the bundle map (w, a) -> psi(w) +
Dpsi(w) a, at integer points (f_uu(w)[a] on a graph).  A nonzero value
proves Tan X full, so where fullness does not hold it is ``inconclusive``.

``ramify`` and ``recover`` read ``--center`` in ambient coordinates and solve
a parametrized input in parameter space, so their points are parameter
values w and ``recovered`` is the ambient center; the ``ramification`` block
says how many starts were read before the Bezout stop, in the order the
starts stopped, the system's Bezout number and whether the root set is
complete.

Exit codes: 0 when the verdict holds / the run succeeded, 1 when it failed
(including no-consensus, unmet hypotheses and inconclusive verdicts), 2 on
input errors, an input or ``--out`` path that cannot be read or written
included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .newton import NewtonConfig
from .poly import GaussianRational, random_rational_point
from .projection import (
    Center,
    RamificationSet,
    ramification_points,
    roundtrip,
    tangent_membership,
)
from .tangent import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    bundle_rank_cross_check,
    dominance_certificate,
    jacobian_agreement,
    secant_dim_estimate,
    tan_is_full,
)
from .variety import GraphVariety, normalize_at
from .varfile import VarietyFile, parse_variety_file

SUCCESS_VERDICTS = ("holds", "success")


# -- serialization -------------------------------------------------------------------


def to_jsonable(obj):
    """Reduce report payloads to JSON types; numpy scalars become Python
    ones, complex numbers become [real, imag] pairs, exact scalars become
    strings and dataclasses become dicts of their fields."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (Fraction, GaussianRational)):
        return str(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return str(obj)


def machine_bytes(report: dict) -> bytes:
    return (json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n").encode()


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
    if args.example and args.file:
        raise ValueError(f"give a variety file or --example, not both ({args.file}, {args.example})")
    if args.example:
        try:
            return registry.get(args.example)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if not args.file:
        raise ValueError("provide a variety file or --example NAME")
    return parse_variety_file(Path(args.file).read_text())


def build_geometry(V, seed: int):
    """(the graph the dominance certificate runs on, chart base point).

    A graph variety is normalized at the origin, with no base point.  A
    parametrized one is charted at the origin, or at the first immersive
    point of a rational search seeded by ``seed`` when the origin is not.
    """
    if isinstance(V, GraphVariety):
        return V.normalized_at_origin(), None
    rng = random.Random(seed)
    candidates = [np.zeros(V.n)] + [
        np.array([float(x) for x in random_rational_point(V.n, 10, rng)])
        for _ in range(20)
    ]
    for u0 in candidates:
        try:
            return normalize_at(V, u0), u0
        except RankDeficientJacobianError:
            continue
    raise RankDeficientJacobianError("no immersive base point found for the parametrization")


def parse_center(text: str, n: int) -> Center:
    """2n affine rationals ('3,5') or 2n+1 projective values ('1:3:5'); the
    separator says which."""
    projective = ":" in text
    parts = [p for p in (s.strip() for s in text.split(":" if projective else ",")) if p]
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad center value: {exc}") from None
    floats = np.zeros(len(values))
    for k, (part, value) in enumerate(zip(parts, values)):
        try:
            floats[k] = float(value)
        except OverflowError:
            pass  # left at 0.0, like a nonzero value below the float range
        if value and not floats[k]:
            raise ValueError(f"center value {part} is outside the float range")
    if len(values) != 2 * n + projective:
        raise ValueError(
            f"center needs {2 * n} affine or {2 * n + 1} projective values, got {len(values)}"
        )
    return Center.from_projective(floats) if projective else Center.from_affine(floats[:n], floats[n:])


def input_block(vf: VarietyFile) -> dict:
    return {
        "name": vf.name,
        "kind": vf.kind,
        "n": vf.n,
        "components": list(vf.exprs),
        "digest": hashlib.sha256(vf.render().encode()).hexdigest(),
    }


# -- commands: (V, args) -> (checks, verdict) ----------------------------------------
# V is the variety as given; only dominance builds a graph chart of it.


def tan_check(V, args):
    """Fullness of V, cross-checked by the exact bundle determinant det K.
    Agreement gives fullness's verdict; fullness that holds while every
    det K draw vanishes gives ``fails``; a nonzero det K proves Tan X full,
    so where fullness does not hold (a graph's origin that is not generic,
    or float samples of K that miss) the verdict is ``inconclusive``."""
    cert = tan_is_full(V, trials=args.trials, rng=random.Random(args.seed))
    bundle = bundle_rank_cross_check(V, args.trials, random.Random(args.seed + 1))
    agree = bundle.verdict == cert.verdict
    cross = {
        "method": bundle.method,
        "trials": bundle.trials,
        "witness": bundle.witness,
        "determinant_at_witness": bundle.details.get("determinant_at_witness"),
        "error_bound": bundle.error_bound,
        "verdict": HOLDS if agree else FAILS,
    }
    verdict = cert.verdict if agree else FAILS if cert.holds else INCONCLUSIVE
    return {"tangent_fullness": cert, "bundle_rank_cross_check": cross}, verdict


def secant_dim(V, args):
    estimate, cert = secant_dim_estimate(V, trials=args.trials, rng=random.Random(args.seed))
    return {"secant_dimension": {"estimate": estimate, "certificate": cert}}, cert.verdict


def dominance(V, args):
    G, base = build_geometry(V, args.seed)
    cert = dominance_certificate(G, trials=args.trials, rng=random.Random(args.seed), box=args.box)
    if base is not None:
        cert.details["chart_base_point"] = to_jsonable(base)
    jac_check = jacobian_agreement(G, args.trials, args.box, random.Random(args.seed + 1))
    verdict = cert.verdict if not cert.holds else jac_check["verdict"]
    return {"dominance": cert, "jacobian_agreement": jac_check}, verdict


def _ramification_block(R: RamificationSet) -> dict:
    return {"count": len(R), **to_jsonable(R)}


def ramify(V, args):
    center = parse_center(args.center, V.n)
    cfg = NewtonConfig(tol=args.tol, starts=args.starts, box=args.box)
    R = ramification_points(V, center, cfg, rng=random.Random(args.seed))
    verified = int(np.count_nonzero(tangent_membership(V, center, np.reshape(R.points, (len(R), V.n)))))
    verdict = "success" if R.found and verified == len(R) else ("no_solutions" if not R.found else "fails")
    checks = {
        "ramification": _ramification_block(R),
        "tangent_membership": {"verified": verified, "total": len(R)},
    }
    return checks, verdict


def recover(V, args):
    center = parse_center(args.center, V.n)
    cfg = NewtonConfig(tol=args.tol, starts=args.starts, box=args.box)
    rt = roundtrip(V, center, cfg, rng=random.Random(args.seed), trials=args.trials)
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
        checks["ramification"] = _ramification_block(rt.ramification)
    return checks, rt.status


# the root finder's options, shared by ramify and recover
_NEWTON = NewtonConfig()
_ROOTS = {"center": None, "starts": _NEWTON.starts, "box": _NEWTON.box, "tol": _NEWTON.tol}

# subcommand -> (checks, help, {option: default}), None marking a required
# option; the options are the subcommand's only tuning flags and the keys of
# its report's options block
COMMANDS = {
    "tan-check": (tan_check, "fullness of the tangent variety (exact where possible)", {"trials": 100}),
    "secant-dim": (secant_dim, "estimate the secant variety dimension", {"trials": 100}),
    "dominance": (dominance, "certify dominance of the tangent-intersection map", {"trials": 100, "box": 0.1}),
    "ramify": (ramify, "compute the ramification locus of a projection", _ROOTS),
    "recover": (recover, "recover a projection center from its ramification locus", {**_ROOTS, "trials": 100}),
}


def run_command(args) -> int:
    """Load the input, run the subcommand's checks, and emit the report."""
    started = time.perf_counter()
    checks_of, _, options = COMMANDS[args.subcommand]
    vf = load_variety_file(args)
    # every layer counts a non-finite value as a failure, so numpy's own
    # overflow and invalid-value warnings only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        checks, verdict = checks_of(vf.to_variety(), args)
    report = {
        "command": args.subcommand,
        "input": input_block(vf),
        "seed": args.seed,
        "options": {name: getattr(args, name) for name in options},
        "checks": checks,
        "verdict": verdict,
    }
    elapsed = time.perf_counter() - started
    if args.out:
        Path(args.out).write_bytes(machine_bytes(report))
    if args.format == "machine":
        sys.stdout.write(machine_bytes(report).decode())
    else:
        sys.stdout.write(render_human(report, elapsed))
    return 0 if verdict in SUCCESS_VERDICTS else 1


def list_examples() -> int:
    for vf in registry.BUILTINS:
        comps = ", ".join(vf.exprs)
        sys.stdout.write(f"{vf.name:17s} n={vf.n} {vf.kind:5s} [{comps}]  {vf.description}\n")
    return 0


# -- argument parsing -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


# option -> (argparse type, help)
OPTION_FLAGS = {
    "center": (
        str,
        "projection center: 2n affine rationals 'a,b,...' or 2n+1 projective 'x0:x1:...'",
    ),
    "trials": (_positive_int, "sample count"),
    "starts": (_positive_int, "Newton starts"),
    "box": (_positive_float, "sampling box radius"),
    "tol": (_positive_float, "Newton residual tolerance"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: not at import, whose time counts in every start-up."""
    parser = argparse.ArgumentParser(
        prog="tansec",
        description="certify tangent fullness, tangent-intersection dominance, and "
        "projection-center recovery for explicitly parametrized varieties",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("examples", help="list the built-in example varieties")
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", nargs="?", help="variety definition file")
        sp.add_argument("--example", help="use a built-in example instead of a file")
        sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        for option, default in options.items():
            kind, text = OPTION_FLAGS[option]
            required = default is None
            text = text if required else f"{text} (default {default})"
            sp.add_argument(f"--{option}", type=kind, default=default, required=required, help=text)
        sp.add_argument("--out", help="also write the machine-readable report to this path")
        sp.add_argument(
            "--format", choices=("human", "machine"), default="human", help="stdout format"
        )
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
        return list_examples() if args.subcommand == "examples" else run_command(args)
    except (VarietyFileError, PolyParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # an input or --out path that cannot be read or written
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TansecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
