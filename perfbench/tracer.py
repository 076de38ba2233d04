"""Outside-in tracing of tansec: spans recorded around its public functions.

Nothing in tansec knows about this module.  ``Tracer.install`` replaces each
target function with a wrapper in every ``tansec`` module that holds a
reference to it (the package imports names with ``from .linalg import solve``,
so patching ``tansec.linalg`` alone would miss the calls made from
``newton``, ``tangent`` and ``variety``), and replaces the target methods on
their classes.  ``Tracer.uninstall`` puts the originals back, and
``assert_untraced`` proves that they are back before a timed run.

Each wrapper records a span (id, name, start, end, parent id, job id) in
memory.  A span's self time is its duration minus the time its child spans
cover.  Failure counts are read from what crosses the wrapper: the result
returned or the exception raised.  Per-term code (``Polynomial.eval_complex``,
``GaussianRational`` operators) is not wrapped, because a wrapper would cost
more than the work it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute); "Class.method" attributes are patched on
# the class.  The layer is the first part of the span name; ``cli`` also
# covers the variety-file parser.
TARGETS = (
    ("poly.jet2", "poly", "PolyMap.jet2"),
    ("poly.value_at", "poly", "PolyMap.value_at"),
    ("poly.jacobian_at", "poly", "PolyMap.jacobian_at"),
    ("poly.hessian0_exact", "poly", "PolyMap.hessian0_exact"),
    ("poly.poly_matrix_det", "poly", "poly_matrix_det"),
    ("poly.parse_map", "poly", "parse_map"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.numerical_rank", "linalg", "numerical_rank"),
    ("linalg.subspace_intersection", "linalg", "subspace_intersection"),
    ("linalg.exact_rank", "linalg", "exact_rank"),
    ("linalg.exact_rank_result", "linalg", "exact_rank_result"),
    ("linalg.exact_det", "linalg", "exact_det"),
    ("newton.damped_newton", "newton", "damped_newton"),
    ("variety.normalize_at", "variety", "normalize_at"),
    ("variety.chart_jet", "variety", "NormalizedChart.jet_at"),
    ("tangent.tan_is_full", "tangent", "tan_is_full"),
    ("tangent.hessian_contraction_exact", "tangent", "hessian_contraction_exact"),
    ("tangent.tangent_bundle_rank_check", "tangent", "tangent_bundle_rank_check"),
    ("tangent.dominance_certificate", "tangent", "dominance_certificate"),
    ("tangent.p_jacobian_closed", "tangent", "p_jacobian_closed"),
    ("tangent.p_jacobian_fd", "tangent", "p_jacobian_fd"),
    ("tangent.secant_dim_estimate", "tangent", "secant_dim_estimate"),
    ("tangent.tangent_frame", "tangent", "tangent_frame"),
    ("tangent.tangent_intersection", "tangent", "tangent_intersection"),
    ("projection.roundtrip", "projection", "roundtrip"),
    ("projection.ramification_points", "projection", "ramification_points"),
    ("projection.ramification_residual", "projection", "ramification_residual"),
    ("projection.ramification_jacobian", "projection", "ramification_jacobian"),
    ("projection.recover_center", "projection", "recover_center"),
    ("projection.tangent_membership", "projection", "tangent_membership"),
    ("cli.main", "cli", "main"),
    ("cli.build_geometry", "cli", "build_geometry"),
    ("cli.machine_bytes", "cli", "machine_bytes"),
    ("cli.parse_variety_file", "varfile", "parse_variety_file"),
)

# Per-layer metrics reported from a traced run: (name, unit, better).
# "<span>.calls", "<span>.self_s" and "<span>.total_s" come from the spans,
# the ratios and poly.chart_eval.self_s are derived, the rest are hook counts.
METRICS = (
    ("poly.jet2.calls", "count", "lower"),
    ("poly.jet2.self_s", "s", "lower"),
    ("poly.value_at.calls", "count", "lower"),
    ("poly.jacobian_at.calls", "count", "lower"),
    ("poly.chart_eval.self_s", "s", "lower"),
    ("poly.poly_matrix_det.self_s", "s", "lower"),
    ("poly.parse_map.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.solve.singular", "count", "lower"),
    ("linalg.numerical_rank.calls", "count", "lower"),
    ("linalg.numerical_rank.self_s", "s", "lower"),
    ("linalg.subspace_intersection.calls", "count", "lower"),
    ("linalg.subspace_intersection.self_s", "s", "lower"),
    ("linalg.exact_rank.calls", "count", "lower"),
    ("linalg.exact_rank.self_s", "s", "lower"),
    ("linalg.exact_rank_result.self_s", "s", "lower"),
    ("linalg.exact_det.calls", "count", "lower"),
    ("linalg.exact_det.self_s", "s", "lower"),
    ("newton.damped_newton.calls", "count", "lower"),
    ("newton.damped_newton.self_s", "s", "lower"),
    ("newton.iterations", "count", "lower"),
    ("newton.converged_ratio", "ratio", "higher"),
    ("newton.fail.singular_step", "count", "lower"),
    ("newton.fail.halvings_exhausted", "count", "lower"),
    ("newton.fail.iter_cap", "count", "lower"),
    ("newton.fail.eval_error", "count", "lower"),
    ("variety.normalize_at.calls", "count", "lower"),
    ("variety.normalize_at.self_s", "s", "lower"),
    ("variety.chart_jet.calls", "count", "lower"),
    ("variety.chart_jet.self_s", "s", "lower"),
    ("variety.chart_inversion.failed", "count", "lower"),
    ("tangent.tan_is_full.calls", "count", "lower"),
    ("tangent.tan_is_full.self_s", "s", "lower"),
    ("tangent.method.exact_symbolic", "count", "higher"),
    ("tangent.method.schwartz_zippel", "count", "higher"),
    ("tangent.method.float_sampling", "count", "lower"),
    ("tangent.tangent_bundle_rank_check.calls", "count", "lower"),
    ("tangent.tangent_bundle_rank_check.self_s", "s", "lower"),
    ("tangent.dominance_certificate.self_s", "s", "lower"),
    ("tangent.p_jacobian_fd.calls", "count", "lower"),
    ("tangent.p_jacobian_fd.self_s", "s", "lower"),
    ("tangent.secant_dim_estimate.self_s", "s", "lower"),
    ("tangent.tangent_frame.calls", "count", "lower"),
    ("tangent.tangent_intersection.calls", "count", "lower"),
    ("tangent.tangent_intersection.nontransverse", "count", "lower"),
    ("projection.ramification_points.calls", "count", "lower"),
    ("projection.ramification_points.self_s", "s", "lower"),
    ("projection.ramification_points.total_s", "s", "lower"),
    ("projection.starts", "count", "lower"),
    ("projection.converged", "count", "higher"),
    ("projection.distinct_ratio", "ratio", "higher"),
    ("projection.roots_found", "count", "higher"),
    ("projection.roots_expected", "count", "higher"),
    ("projection.recover_center.self_s", "s", "lower"),
    ("projection.pairs_used", "count", "higher"),
    ("projection.pairs_skipped", "count", "lower"),
    ("projection.cluster_ratio", "ratio", "higher"),
    ("projection.tangent_membership.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_geometry.self_s", "s", "lower"),
    ("cli.machine_bytes.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.parse_variety_file.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# -- hooks: counts read from what crosses a wrapper ----------------------------------
# Each takes (tracer, frame, args, kwargs, result, exc); exc is None on return.


def _solve_hook(tr, frame, args, kwargs, result, exc):
    if isinstance(exc, tr.errors.SingularMatrixError):
        tr.counts["linalg.solve.singular"] += 1
        parent = tr.stack[-1] if tr.stack else None
        if parent is not None and parent[2] == "newton.damped_newton":
            parent[3] = True


def _newton_hook(tr, frame, args, kwargs, result, exc):
    if exc is not None:
        if isinstance(exc, tr.errors.TansecError):
            tr.counts["newton.fail.eval_error"] += 1
        return
    tr.counts["newton.iterations"] += result.iterations
    if result.converged:
        tr.counts["newton.converged"] += 1
        return
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    if frame[3]:
        tr.counts["newton.fail.singular_step"] += 1
    elif result.iterations >= cfg.max_iters:
        tr.counts["newton.fail.iter_cap"] += 1
    else:
        tr.counts["newton.fail.halvings_exhausted"] += 1


def _chart_jet_hook(tr, frame, args, kwargs, result, exc):
    if isinstance(exc, tr.errors.NewtonDivergedError):
        tr.counts["variety.chart_inversion.failed"] += 1


def _tan_is_full_hook(tr, frame, args, kwargs, result, exc):
    if exc is None:
        tr.counts["tangent.method." + result.method] += 1


def _intersection_hook(tr, frame, args, kwargs, result, exc):
    if isinstance(exc, tr.errors.NonTransverseError):
        tr.counts["tangent.tangent_intersection.nontransverse"] += 1


def _ramification_hook(tr, frame, args, kwargs, result, exc):
    if exc is not None:
        return
    tr.counts["projection.starts"] += result.starts
    tr.counts["projection.converged"] += result.converged
    tr.counts["projection.distinct"] += len(result.points)
    bezout = (tr.job or {}).get("bezout")
    if bezout:
        tr.counts["projection.roots_found"] += len(result.points)
        tr.counts["projection.roots_expected"] += bezout


def _recover_hook(tr, frame, args, kwargs, result, exc):
    if exc is None:
        report = result[1]
        tr.counts["projection.pairs_used"] += report["pairs_used"]
        tr.counts["projection.pairs_skipped"] += report["pairs_skipped"]
        tr.counts["projection.cluster_size"] += report["cluster_size"]


def _machine_bytes_hook(tr, frame, args, kwargs, result, exc):
    if exc is None:
        tr.counts["cli.report_bytes"] += len(result)


HOOKS = {
    "linalg.solve": _solve_hook,
    "newton.damped_newton": _newton_hook,
    "variety.chart_jet": _chart_jet_hook,
    "tangent.tan_is_full": _tan_is_full_hook,
    "tangent.tangent_intersection": _intersection_hook,
    "projection.ramification_points": _ramification_hook,
    "projection.recover_center": _recover_hook,
    "cli.machine_bytes": _machine_bytes_hook,
}


def originals() -> dict:
    """Span name -> (owner, attribute name, original) for every target.
    Call it before any tracer is installed."""
    return {name: _resolve(mod, attr) for name, mod, attr in TARGETS}


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"tansec.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, attr, getattr(mod, attr)


def _tansec_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "tansec" or name.startswith("tansec.")]


class Tracer:
    """Spans and counts for one traced pass over a job list."""

    def __init__(self, originals: dict):
        self.errors = importlib.import_module("tansec.errors")
        self.originals = originals
        self.spans: list[tuple] = []
        # open spans: [span id, time covered by children, name, singular-step flag]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.job: dict | None = None
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tr = self
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            sid = tr._next_id
            tr._next_id += 1
            parent = tr.stack[-1][0] if tr.stack else None
            frame = [sid, 0.0, name, False]
            tr.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._close(frame, name, parent, t0, perf_counter())
                if hook is not None:
                    hook(tr, frame, args, kwargs, None, exc)
                raise
            tr._close(frame, name, parent, t0, perf_counter())
            if hook is not None:
                hook(tr, frame, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, name, parent, t0, t1):
        dur = t1 - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        job_id = self.job["id"] if self.job else None
        self.spans.append((frame[0], name, t0, t1, parent, job_id))

    def install(self) -> None:
        modules = _tansec_modules()
        for name, (owner, attr, orig) in self.originals.items():
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        c = self.counts
        out = {}
        for name, _unit, _better in METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif kind == "self_s":
                out[name] = self.self_s[base]
            elif kind == "total_s":
                out[name] = self.total_s[base]
            else:
                out[name] = c[name]
        out["poly.chart_eval.self_s"] = self.self_s["poly.value_at"] + self.self_s["poly.jacobian_at"]
        out["newton.converged_ratio"] = _ratio(c["newton.converged"], self.calls["newton.damped_newton"])
        out["projection.distinct_ratio"] = _ratio(c["projection.distinct"], c["projection.converged"])
        out["projection.cluster_ratio"] = _ratio(c["projection.cluster_size"], c["projection.pairs_used"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "job": job}))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def assert_untraced(originals: dict) -> None:
    """Raise unless every target is bound to its original in every tansec
    module and class, i.e. no wrapper can be inside a timed run."""
    modules = _tansec_modules()
    for name, (owner, attr, orig) in originals.items():
        if isinstance(owner, type):
            bound = [owner.__dict__[attr]]
        else:
            bound = [v for m in modules for v in vars(m).values() if getattr(v, "__wrapped__", None) is orig]
            bound.append(getattr(owner, attr))
        if any(v is not orig for v in bound):
            raise RuntimeError(f"{name} is still wrapped; a timed run must be untraced")
