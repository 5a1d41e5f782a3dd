"""``reports.write_json`` against its oracle, the stdlib encoder:
``json.dumps(x, indent=2, sort_keys=True) + "\\n"``, byte for byte."""

import io
import json
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan import cli, reports
from gturan.reports import to_jsonable, write_json


def dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


def written(x) -> str:
    fh = io.StringIO()
    write_json(x, fh)
    return fh.getvalue()


class Recorder:
    """A text file that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)


class Name(str):
    pass


class Count(int):
    pass


class Colour(IntEnum):
    RED = 1


class Rows(list):
    pass


class Record(dict):
    pass


scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers(min_value=-(10**40), max_value=10**40)
)
trees = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_trees_match_the_stdlib(x):
    assert written(x) == dumps(x)


EDGE_CASES = [
    None, True, False, 0, -1, 2**64, -(10**60), 1.5, -0.0, 1e300, 1e-300,
    float("nan"), float("inf"), -float("inf"),
    "", "plain", "é ü ß", "\U0001f600  ", '"quoted" \\ back/slash',
    "\x00\x01\x1f\x7f\n\r\t\b\f",
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], {"": {"": []}},
    [True, 1, False, 0, None], {"t": True, "one": 1, "f": False, "zero": 0},
    [1, 1.0, "1", [1], {"1": 1}],
    {"b": 1, "a": 2, "B": 3, "é": 4, "": 5, "a b": 6},
    Name("sub"), [Name("in a list")], {"k": Name("in a dict")}, {Name("key"): 1},
    Count(7), [Count(7), Colour.RED], {"k": Count(-3), "c": Colour.RED},
    Rows([1, [2]]), [Rows(), Rows([{}])], Record(b=1, a=[2]), {"r": Record()},
    {1: "int key", 2: ["x"]}, {"nested": {3: 1, 1: 3}}, {True: 1}, {None: 1},
    {1.5: 1}, [{2: {"a": [1, {}]}}],
    list(range(50)), [[i, str(i), {"i": i}] for i in range(20)],
]


@pytest.mark.parametrize("x", EDGE_CASES)
def test_edge_cases_match_the_stdlib(x):
    assert written(x) == dumps(x)


@pytest.mark.parametrize("x", [
    {"a": 1, 2: 1},     # keys of two kinds do not sort
    [1, object()],      # a value the encoder does not know
    {"k": {1j: 0}},     # a key it does not know
])
def test_errors_match_the_stdlib(x):
    with pytest.raises(TypeError):
        dumps(x)
    with pytest.raises(TypeError):
        written(x)


def test_a_large_list_is_written_in_chunks():
    rows = [{"clique": [i, i + 1, i + 2], "weight": {"num": str(i), "den": "3"}}
            for i in range(5000)]
    fh = Recorder()
    write_json({"data": rows}, fh)
    assert len(fh.writes) > 1
    assert max(map(len, fh.writes)) < len(dumps({"data": rows})) // 2
    assert "".join(fh.writes) == dumps({"data": rows})


def test_to_jsonable_types():
    # exact types first, subclasses by isinstance, as before
    assert to_jsonable({1: (Fraction(1, 3), [Count(2)], Name("x"))}) == {
        "1": [{"num": "1", "den": "3"}, [2], "x"]
    }
    assert to_jsonable(Rows([Record(a=Fraction(2))])) == [{"a": {"num": "2", "den": "1"}}]
    with pytest.raises(TypeError):
        to_jsonable({"a": object()})


COMMANDS = [
    ["construct", "--family", "turan(4,6)"],
    ["count", "--graph", "turan(5,20)", "--pattern", "K2vI2", "--rooted", "0,4"],
    ["count", "--graph", "K5", "--cliques", "3"],
    ["verify-free", "--graph", "turan(4,8)", "--u", "2", "--delta", "4", "--omega", "3"],
    ["bounds", "--pattern", "K2vI2", "--u", "1", "--delta", "12", "--omega", "4"],
    ["bounds", "--pattern", "K3", "--u", "2", "--delta", "9", "--omega", "3", "--grid"],
    ["bounds", "--pattern", "K3", "--u", "1", "--delta", "6", "--omega", "3", "--star-problem"],
    ["localize", "--graph", "turan(4,8)", "--pattern", "K2vI2", "--u", "2", "--omega0", "1",
     "--per-clique"],
    ["search", "--pattern", "K3", "--n", "6", "--omega", "3"],
    ["search", "--pattern", "K3", "--p", "6", "--u", "2", "--omega", "3", "--ncap", "7"],
    ["reproduce-examples"],
    ["verify", "--level", "quick"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_every_command_writes_the_stdlib_bytes(argv, capsys, monkeypatch, tmp_path):
    # stdout (--json) and the report file (--out) each hold the stdlib
    # text of the document handed to the writer
    docs = []
    real = cli.write_json
    monkeypatch.setattr(cli, "write_json", lambda doc, fh: docs.append(doc) or real(doc, fh))
    out = tmp_path / "report.json"
    cli.main(argv + ["--json", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert len(docs) == 2
    report, shown = docs
    assert out.read_text() == dumps(report)
    assert stdout == dumps(shown)
    assert "manifest" in report and "manifest" not in shown
    assert {k: v for k, v in report.items() if k != "manifest"} == shown


def test_out_converts_the_data_once(capsys, monkeypatch, tmp_path):
    # the report file is the stdout document plus the manifest
    seen = []
    real = reports.to_jsonable
    monkeypatch.setattr(reports, "to_jsonable", lambda obj: seen.append(obj) or real(obj))
    cli.main(["bounds", "--pattern", "K3", "--u", "1", "--delta", "5", "--omega", "3", "--grid",
              "--json", "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    rows = [x for x in seen if type(x) is list and x and type(x[0]) is dict]
    assert len(rows) == 1 and len(rows[0]) == 3
