"""The variety definition file format.

A flat, diff-friendly text format; expressions reuse the package grammar:

    # comment
    name = mixed-surface
    n = 2
    kind = graph
    f1 = u1^2
    f2 = u1*u2

Graph varieties need exactly n components, parametrized ones exactly 2n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PolyParseError, VarietyFileError
from .poly import PolyMap, parse_map
from .variety import GraphVariety, ParamVariety

KINDS = ("graph", "param")


@dataclass
class VarietyFile:
    n: int
    kind: str
    exprs: list[str]
    name: str | None = None
    description: str | None = None
    # the components as parsed by parse_variety_file; built-ins parse in to_variety
    parsed: PolyMap | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def expected_components(self) -> int:
        return self.n if self.kind == "graph" else 2 * self.n

    def to_variety(self):
        the_map = self.parsed or parse_map(self.exprs, self.n)
        return GraphVariety(the_map) if self.kind == "graph" else ParamVariety(the_map)

    def render(self) -> str:
        """Canonical text form; the machine-report digest hashes this."""
        lines = []
        if self.name:
            lines.append(f"name = {self.name}")
        if self.description:
            lines.append(f"description = {self.description}")
        lines.append(f"n = {self.n}")
        lines.append(f"kind = {self.kind}")
        for i, e in enumerate(self.exprs, start=1):
            lines.append(f"f{i} = {e}")
        return "\n".join(lines) + "\n"


def parse_variety_file(text: str) -> VarietyFile:
    n: int | None = None
    kind: str | None = None
    name = None
    description = None
    seen: dict[str, int] = {}
    components: dict[int, tuple[str, int, int]] = {}  # index -> (expr, line, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise VarietyFileError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        expr_col = len(line) - len(value) + (len(value) - len(value.lstrip())) + 1
        value = value.strip()
        if key in seen:
            raise VarietyFileError(f"duplicate key {key!r}", lineno)
        seen[key] = lineno
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                raise VarietyFileError(f"n must be an integer, got {value!r}", lineno) from None
            if n <= 0:
                raise VarietyFileError("n must be positive", lineno)
        elif key == "kind":
            if value not in KINDS:
                raise VarietyFileError(f"kind must be one of {KINDS}, got {value!r}", lineno)
            kind = value
        elif key == "name":
            name = value
        elif key == "description":
            description = value
        elif key.startswith("f") and key[1:].isdecimal():
            idx = int(key[1:])
            if idx < 1:
                raise VarietyFileError(f"component index must start at 1, got {key!r}", lineno)
            components[idx] = (value, lineno, expr_col)
        else:
            raise VarietyFileError(f"unknown key {key!r}", lineno)

    if n is None:
        raise VarietyFileError("missing 'n = <int>' line", 1)
    if kind is None:
        raise VarietyFileError("missing 'kind = graph|param' line", 1)
    expected = n if kind == "graph" else 2 * n
    indices = sorted(components)
    if indices != list(range(1, expected + 1)):
        raise VarietyFileError(
            f"{kind} variety with n={n} needs components f1..f{expected}, got "
            + (", ".join(f"f{i}" for i in indices) if indices else "none"),
            max(seen.values(), default=1),
        )

    polys = []
    for idx in indices:
        expr, lineno, col = components[idx]
        try:
            polys.extend(parse_map([expr], n).components)
        except PolyParseError as exc:
            raise VarietyFileError(str(exc), lineno, col + exc.position) from exc
    exprs = [components[idx][0] for idx in indices]
    vf = VarietyFile(n=n, kind=kind, exprs=exprs, name=name, description=description)
    vf.parsed = PolyMap(polys)
    return vf
