import pytest

from tansec import poly
from tansec.errors import VarietyFileError
from tansec.poly import parse_map
from tansec.varfile import VarietyFile, parse_variety_file
from tansec.variety import GraphVariety, ParamVariety
from tansec import registry


def test_parse_graph_file():
    text = """
# a surface
name = demo
n = 2
kind = graph
f1 = u1^2
f2 = u1*u2  # trailing comment
"""
    vf = parse_variety_file(text)
    assert vf.n == 2
    assert vf.kind == "graph"
    assert vf.name == "demo"
    assert vf.exprs == ["u1^2", "u1*u2"]
    assert isinstance(vf.to_variety(), GraphVariety)


def test_parse_param_file():
    text = "n = 1\nkind = param\nf1 = 2*u1\nf2 = u1^2\n"
    vf = parse_variety_file(text)
    assert vf.expected_components == 2
    assert isinstance(vf.to_variety(), ParamVariety)


def test_file_expressions_are_parsed_once(monkeypatch):
    calls = []
    parse_poly = poly.parse_poly
    monkeypatch.setattr(poly, "parse_poly", lambda text, n: calls.append(text) or parse_poly(text, n))
    vf = parse_variety_file("n = 2\nkind = graph\nf1 = u1^2\nf2 = u1*u2\n")
    g = vf.to_variety()
    assert calls == ["u1^2", "u1*u2"]
    assert g.f == parse_map(["u1^2", "u1*u2"], 2)


def test_render_parse_round_trip():
    vf = VarietyFile(n=2, kind="graph", exprs=["u1^2", "u1*u2"], name="x", description="y")
    again = parse_variety_file(vf.render())
    assert again == vf


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("kind = graph\nf1 = u1\n", "missing 'n"),
        ("n = 1\nf1 = u1\n", "missing 'kind"),
        ("n = 0\nkind = graph\nf1 = u1\n", "positive"),
        ("n = 1\nkind = blob\nf1 = u1\n", "kind"),
        ("n = 2\nkind = graph\nf1 = u1\n", "f1..f2"),
        ("n = 1\nkind = graph\nf1 = u1\nf1 = u1\n", "duplicate"),
        ("n = 1\nkind = graph\nf1 = u1\nbogus = 3\n", "unknown key"),
        ("n = 1\nkind = graph\nnonsense\n", "key = value"),
        ("n = 1\nkind = graph\nf1 = u2\n", "out of range"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(VarietyFileError) as exc:
        parse_variety_file(text)
    assert fragment in str(exc.value)


def test_expression_error_carries_line_and_column():
    text = "n = 1\nkind = graph\nf1 = u1^^2\n"
    with pytest.raises(VarietyFileError) as exc:
        parse_variety_file(text)
    assert exc.value.line == 3
    assert exc.value.column is not None
    # column points inside the expression, at the offending '^'
    assert text.splitlines()[2][exc.value.column - 1] == "^"


def test_superscript_exponent_carries_line_and_column():
    text = "n = 1\nkind = graph\nf1 = u1^\u00b2\n"
    with pytest.raises(VarietyFileError) as exc:
        parse_variety_file(text)
    assert (exc.value.line, exc.value.column) == (3, 9)
    assert text.splitlines()[2][exc.value.column - 1] == "\u00b2"


def test_superscript_component_index_is_an_unknown_key():
    # '²'.isdigit() holds but int('²') raises: the key must be refused
    # as a whole, with its line
    text = "n = 1\nkind = graph\nf² = u1^2\n"
    with pytest.raises(VarietyFileError) as exc:
        parse_variety_file(text)
    assert exc.value.line == 3
    assert "unknown key 'f²'" in str(exc.value)


def test_registry_entries_are_valid():
    assert len(set(registry.names())) == len(registry.BUILTINS)
    for vf in registry.BUILTINS:
        v = vf.to_variety()
        assert isinstance(v, GraphVariety)
        assert len(vf.exprs) == vf.expected_components
        assert parse_variety_file(vf.render()) == vf
    assert set(registry.FULL_TANGENT) <= set(registry.names())
    with pytest.raises(KeyError):
        registry.get("nope")
