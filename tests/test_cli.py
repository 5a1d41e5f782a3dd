import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gturan import acceptance, cli
from gturan.acceptance import CriterionResult, reproduce_examples
from gturan.cli import main, parse_graph_spec
from gturan.graphs import complete_graph, graph6_encode, isomorphic
from gturan.families import turan
from gturan.reports import text_lines, validate_schema


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert validate_schema(doc) == []
    return code, doc


class TestGraphSpecs:
    def test_atoms_and_families(self):
        assert parse_graph_spec("K4") == complete_graph(4)
        assert parse_graph_spec("turan(4,6)") == turan(4, 6)
        assert parse_graph_spec("I3").edge_count == 0
        assert parse_graph_spec("P4").edge_count == 3
        assert parse_graph_spec("C5").edge_count == 5
        book = parse_graph_spec("K2vI2")
        assert (book.n, book.edge_count) == (4, 5)
        assert isomorphic(parse_graph_spec("K1vP3"), book)

    def test_raw_graph6(self):
        assert parse_graph_spec("C~") == complete_graph(4)

    def test_g6_file(self, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text(graph6_encode(turan(3, 5)) + "\n")
        assert parse_graph_spec(f"@{path}") == turan(3, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_graph_spec("zorp(1,2)")


class TestSubcommands:
    def test_construct(self, capsys):
        code, doc = run_json(capsys, "construct", "--family", "turan(4,6)")
        assert code == 0
        assert doc["data"]["n"] == 6 and doc["data"]["m"] == 13

    def test_count_cliques(self, capsys):
        code, doc = run_json(capsys, "count", "--graph", "turan(4,6)", "--cliques", "3")
        assert doc["data"]["count"] == 12

    def test_count_pattern(self, capsys):
        code, doc = run_json(capsys, "count", "--graph", "K4", "--pattern", "K3")
        assert doc["data"]["count"] == 4

    def test_count_rooted(self, capsys):
        code, doc = run_json(
            capsys, "count", "--graph", "K4", "--pattern", "K3", "--rooted", "0"
        )
        assert doc["data"]["count"] == 3

    def test_verify_free_pass_and_fail(self, capsys):
        code, doc = run_json(
            capsys, "verify-free", "--graph", "colexdm(4,17)",
            "--u", "1", "--delta", "5", "--omega", "4",
        )
        assert code == 0 and doc["data"]["passes"]
        code, doc = run_json(
            capsys, "verify-free", "--graph", "K5",
            "--u", "1", "--delta", "5", "--omega", "4",
        )
        assert code == 1 and not doc["data"]["passes"]

    def test_bounds(self, capsys):
        code, doc = run_json(
            capsys, "bounds", "--pattern", "K3", "--u", "1", "--delta", "6", "--omega", "4"
        )
        row = doc["data"][0]
        assert row["equal"] is True
        assert row["lower"] == {"num": "4", "den": "1"}

    def test_bounds_beyond_vertex_cap(self, capsys):
        # the lower-bound host T_4(400) is never built
        code, doc = run_json(
            capsys, "bounds", "--pattern", "K3", "--u", "1", "--delta", "300", "--omega", "4"
        )
        assert code == 0
        row = doc["data"][0]
        assert row["lower_bound_parts"] == [100, 100, 100, 100]
        assert row["lower"] == row["upper"] == {"num": "10000", "den": "1"}

    def test_parser_state_does_not_leak(self, capsys):
        argv = ["bounds", "--pattern", "K3", "--u", "1", "--delta", "8", "--omega", "4"]
        code, doc = run_json(capsys, *argv, "--grid")
        assert code == 0 and len(doc["data"]) == 5
        code, doc = run_json(capsys, *argv)
        assert code == 0 and len(doc["data"]) == 1
        assert doc["kind"] == "bounds"

    def test_bounds_star_problem(self, capsys):
        code, doc = run_json(
            capsys, "bounds", "--pattern", "K2vI2", "--u", "2",
            "--delta", "6", "--omega", "4", "--star-problem",
        )
        assert doc["data"]["conjectural"] is True

    def test_localize(self, capsys):
        code, doc = run_json(
            capsys, "localize", "--graph", "K5", "--pattern", "K3",
            "--u", "1", "--omega0", "1", "--per-clique",
        )
        assert doc["data"]["equality"] is True
        assert doc["data"]["copies"] == 10
        assert len(doc["data"]["per_clique"]) == 10

    @pytest.mark.parametrize("argv", [
        ["--graph", "P3", "--pattern", "K2", "--u", "2", "--omega0", "1"],
        ["--graph", "I2", "--pattern", "K1", "--u", "1"],
    ])
    def test_localize_pattern_is_the_root_clique(self, capsys, argv):
        # every u-clique is a copy and a maximal one: each weight is 1
        code, doc = run_json(capsys, "localize", *argv, "--per-clique")
        assert code == 0
        data = doc["data"]
        assert data["weighted_sum"] == data["bound"] == {"num": "2", "den": "1"}
        assert data["equality"] is True
        assert [c["weight"] for c in data["per_clique"]] == [{"num": "1", "den": "1"}] * 2

    def test_search(self, capsys, tmp_path):
        dump = tmp_path / "optima.g6"
        code, doc = run_json(
            capsys, "search", "--pattern", "K3", "--n", "6", "--omega", "3",
            "--dump-g6", str(dump),
        )
        assert doc["data"]["objective"] == 8
        assert dump.read_text().strip()

    def test_reproduce_examples(self, capsys):
        code, doc = run_json(capsys, "reproduce-examples")
        assert code == 0
        assert doc["data"]["k3_colex_blocks"] == 96
        assert doc["data"]["k3_turan_blocks"] == 84
        assert doc["data"]["k4_colex_blocks"] == 24
        assert doc["data"]["k4_turan_blocks"] == 28

    def test_text_output_is_default(self, capsys):
        code, out = run(capsys, "count", "--graph", "K4", "--cliques", "3")
        assert "4" in out and not out.strip().startswith("{")

    @pytest.mark.parametrize("graph, message", [
        ("turan(4)", "family turan takes 2 integers"),
        ("hello", "graph6: truncated bit vector"),
        ("turan(5,300)", "vertex count 300 outside [0, 256]"),
        ("split(-1,2)", "sizes must be nonnegative"),
    ])
    def test_bad_graph_is_one_line_error(self, capsys, graph, message):
        code = main(["count", "--graph", graph, "--cliques", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"gturan: error: {message}\n"

    def test_negative_family_argument_reaches_the_builder(self, capsys):
        # a family call with a minus sign is parsed as a call, not as graph6
        code = main(["construct", "--family", "split(-1,2)"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "gturan: error: sizes must be nonnegative\n"

    @pytest.mark.parametrize("family, arg", [
        ("split(1,-)", "-"),
        ("turan(2,--3)", "--3"),
        ("turan(4,)", ""),
        ("lb(1,5 4,3)", "5 4"),
    ])
    def test_bad_family_argument_is_named(self, capsys, family, arg):
        # each argument is parsed on its own, and the message names it
        code = main(["construct", "--family", family])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        name = family.split("(")[0]
        assert err == f"gturan: error: family {name}: argument {arg!r} is not an integer\n"

    def test_closed_pipe_exits_quietly(self):
        # the reader closes its end before the search writes: no error line
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "gturan", "search", "--pattern", "K3", "--n", "7", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.parametrize("argv, message", [
        (["search", "--pattern", "K3"], "one of the arguments --n --p is required"),
        (["search", "--pattern", "K3", "--n", "4", "--p", "5", "--u", "2"],
         "argument --p: not allowed with argument --n"),
        (["count", "--graph", "K4"], "one of the arguments --pattern --cliques is required"),
        (["count", "--graph", "K4", "--pattern", "K3", "--cliques", "3"],
         "argument --cliques: not allowed with argument --pattern"),
    ])
    def test_neither_or_both_choices_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--n", "-1"], "n=-1 is negative"),
        (["--p", "-2", "--u", "2"], "p=-2 is negative"),
        (["--p", "3", "--u", "2", "--ncap", "-1"], "n_cap=-1 is negative"),
        (["--n", "3", "--ncap", "5"], "--ncap applies only with --p"),
        (["--n", "9"], "n=9 exceeds enumeration cap 8"),
        (["--p", "3", "--u", "2", "--ncap", "9"], "n=9 exceeds enumeration cap 8"),
    ])
    def test_search_bad_size_is_one_line_error(self, capsys, argv, message):
        code = main(["search", "--pattern", "K3", *argv, "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"gturan: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--pattern", "K3", "--rooted", "99"], "root vertex 99 outside 0..3"),
        (["--pattern", "K3", "--rooted=-1"], "root vertex -1 outside 0..3"),
        (["--pattern", "K3", "--rooted", "0,0"], "root vertex 0 repeated"),
        (["--pattern", "K3", "--rooted", "0,"], "invalid literal for int() with base 10: ''"),
        (["--pattern", "K3", "--rooted", ""], "invalid literal for int() with base 10: ''"),
        (["--cliques", "3", "--rooted", "0"], "--rooted applies only with --pattern"),
    ])
    def test_count_bad_root_is_one_line_error(self, capsys, argv, message):
        code = main(["count", "--graph", "K4", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"gturan: error: {message}\n"

    @pytest.mark.parametrize("extra, cause", [
        ([], "its clique size 3 is below threshold + u = 3023308801, outside the hypothesis"),
        (["--omega0", "1"], "threshold parameter 1 is below the pattern's true clique threshold"),
    ])
    def test_undefined_weight_is_one_line_error(self, capsys, extra, cause):
        # the wheel W5 in itself: its hub has clique size 3 and codegree 5,
        # and T_2(5) holds no C5
        code = main(["localize", "--graph", "K1vC5", "--pattern", "K1vC5", "--u", "1", *extra])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == ("gturan: error: weight undefined on dominating clique [0]: T_2(5) "
                       f"holds no copy of the derived pattern; {cause}\n")

    def test_missing_files_are_one_line_errors(self, capsys, tmp_path):
        missing = tmp_path / "missing.g6"
        code = main(["count", "--graph", f"@{missing}", "--cliques", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"gturan: error: [Errno 2] No such file or directory: '{missing}'\n"
        dump = tmp_path / "no-such-dir" / "optima.g6"
        code = main(["search", "--pattern", "K3", "--n", "4", "--dump-g6", str(dump)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"gturan: error: [Errno 2] No such file or directory: '{dump}'\n"

    def test_bounds_grid_checks_its_parameters(self, capsys):
        code = main(["bounds", "--pattern", "K3", "--grid", "--delta", "2",
                     "--omega", "4", "--u", "1", "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "gturan: error: need delta >= omega >= u+1, got (2, 4, 2)\n"

    def test_bounds_star_problem_rejects_grid(self, capsys):
        code = main(["bounds", "--pattern", "K3", "--u", "1", "--delta", "6",
                     "--omega", "3", "--star-problem", "--grid", "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "gturan: error: --grid does not apply with --star-problem\n"

    @pytest.mark.parametrize("u", ["0", "-1"])
    def test_localize_bad_u_is_one_line_error(self, capsys, u):
        code = main(["localize", "--graph", "turan(3,6)", "--pattern", "K3", "--u", u])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"gturan: error: u={u} outside 1..3, the pattern's dominating count\n"

    @pytest.mark.parametrize("pattern, u, have", [("I3", "1", 0), ("K3", "4", 3)])
    def test_localize_too_few_dominating_is_one_line_error(self, capsys, pattern, u, have):
        code = main(["localize", "--graph", "K3", "--pattern", pattern, "--u", u])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"gturan: error: pattern has {have} dominating vertices, need {u}\n"

    @pytest.mark.parametrize("threshold", ["0", "-5"])
    def test_localize_bad_threshold_is_one_line_error(self, capsys, threshold):
        code = main(["localize", "--graph", "K4", "--pattern", "K4", "--u", "2",
                     "--omega0", threshold])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"gturan: error: threshold={threshold} is below 1, not a clique threshold\n"

    def test_verify_quick_level(self, capsys):
        code, doc = run_json(capsys, "verify", "--level", "quick")
        assert code == 0
        assert [row["criterion"] for row in doc["data"]] == [1, 5, 6, 9, 10]
        assert all(row["passed"] for row in doc["data"])


class TestManifest:
    def test_replay_is_byte_identical_modulo_timestamp(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        argv = ["bounds", "--pattern", "K3", "--u", "1", "--delta", "5",
                "--omega", "4", "--out", str(out)]
        main(list(argv))
        first = out.read_text()
        main(list(argv))
        second = out.read_text()
        capsys.readouterr()
        a, b = json.loads(first), json.loads(second)
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert validate_schema(json.loads(first)) == []


    def test_file_inputs_are_hashed(self, capsys, tmp_path):
        host, pattern = tmp_path / "k4.g6", tmp_path / "k3.g6"
        host.write_text(graph6_encode(complete_graph(4)) + "\n")
        pattern.write_text(graph6_encode(complete_graph(3)) + "\n")
        out = tmp_path / "r.json"
        main(["count", "--graph", f"@{host}", "--pattern", f"@{pattern}", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["data"]["count"] == 4
        assert doc["manifest"]["input_hashes"] == {
            "--graph": hashlib.sha256(host.read_bytes()).hexdigest(),
            "--pattern": hashlib.sha256(pattern.read_bytes()).hexdigest(),
        }
        assert validate_schema(doc) == []

    def test_family_file_is_hashed_and_named_inputs_are_not(self, capsys, tmp_path):
        family, out = tmp_path / "t35.g6", tmp_path / "r.json"
        family.write_text(graph6_encode(turan(3, 5)) + "\n")
        main(["construct", "--family", f" @{family}", "--out", str(out)])
        assert json.loads(out.read_text())["manifest"]["input_hashes"] == {
            "--family": hashlib.sha256(family.read_bytes()).hexdigest(),
        }
        main(["construct", "--family", "turan(3,5)", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["manifest"]["input_hashes"] == {}


class TestTextView:
    @pytest.mark.parametrize("argv, code", [
        (["construct", "--family", "turan(4,6)"], 0),
        (["count", "--graph", "turan(4,6)", "--cliques", "3"], 0),
        (["count", "--graph", "K4", "--pattern", "K3"], 0),
        (["count", "--graph", "K4", "--pattern", "K3", "--rooted", "0,1"], 0),
        (["verify-free", "--graph", "colexdm(4,17)", "--u", "1", "--delta", "5",
          "--omega", "4"], 0),
        (["verify-free", "--graph", "K5", "--u", "2", "--delta", "2", "--omega", "4"], 1),
        (["bounds", "--pattern", "K3", "--u", "1", "--delta", "6", "--omega", "4"], 0),
        (["bounds", "--pattern", "K3", "--u", "1", "--delta", "9", "--omega", "4",
          "--grid"], 0),
        (["bounds", "--pattern", "K2vI2", "--u", "2", "--delta", "6", "--omega", "4",
          "--star-problem"], 0),
        (["localize", "--graph", "turan(3,6)", "--pattern", "K3", "--u", "1",
          "--omega0", "1", "--per-clique"], 0),
        (["localize", "--graph", "C5", "--pattern", "K3", "--u", "2"], 0),
        (["search", "--pattern", "K3", "--n", "5", "--omega", "3"], 0),
        (["search", "--pattern", "K3", "--p", "6", "--u", "2", "--omega", "3",
          "--ncap", "5"], 0),
        (["reproduce-examples"], 0),
        (["verify"], 1),
    ])
    def test_text_is_the_view_of_the_json_data(self, capsys, monkeypatch, argv, code):
        # a fixed suite result with one failure, so both runs report the
        # same elapsed times and verify exits 1
        monkeypatch.setattr(acceptance, "run_acceptance", lambda level, seed: [
            CriterionResult(1, "first", True, elapsed=0.25),
            CriterionResult(2, "second", False, elapsed=1.5),
        ])
        got, doc = run_json(capsys, *argv)
        assert got == code
        data = doc["data"]
        seen = []
        monkeypatch.setattr(cli, "text_lines", lambda d: seen.append(d) or text_lines(d))
        got, out = run(capsys, *argv)
        assert got == code
        # the JSON prints keys sorted, the text keeps the data's own order
        assert seen == [data]
        assert out.splitlines() == text_lines(seen[0])
        keys = data[0] if isinstance(data, list) else data
        assert keys and all(key in out for key in keys)

    def test_rendering_rules(self):
        data = {
            "name": "K3",
            "ratio": {"num": "-7", "den": "3"},
            "whole": {"num": "4", "den": "1"},
            "missing": None,
            "flags": [True, False],
            "params": {"u": 1, "delta": None},
            "empty": [],
            "rows": [{"v": [0, 1], "w": {"num": "1", "den": "6"}},
                     {"v": [10, 11], "w": None}],
        }
        assert text_lines(data) == [
            "name     K3",
            "ratio    -7/3",
            "whole    4",
            "missing  -",
            "flags    [true, false]",
            "params   u=1, delta=-",
            "empty    []",
            "rows",
            "  v         w",
            "  [0, 1]    1/6",
            "  [10, 11]  -",
        ]
        assert text_lines([{"a": 1, "bb": "x"}]) == ["a  bb", "1  x"]


def test_cold_start_loads_no_hashing_or_acceptance_suite():
    # a fresh interpreter: this process has imported both already
    code = ("import sys, gturan.cli; "
            "print(sorted({'hashlib', '_hashlib', 'gturan.acceptance'} & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    assert cli.build_parser().parse_args(["verify"]).seed == acceptance.DEFAULT_SEED


def test_reproduce_examples_function():
    data = reproduce_examples()
    assert data["k3_colex_blocks"] > data["k3_turan_blocks"]
    assert data["k4_turan_blocks"] > data["k4_colex_blocks"]


def test_schema_rejects_bad_documents():
    assert validate_schema({"kind": "count"})  # missing keys -> problems listed
    assert validate_schema(
        {"schema_version": "2", "kind": "count", "data": {}}
    )  # wrong version
