"""Serialization round trips, file formats, and the command line."""

import contextlib
import io as textio
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_fig1a, random_t2_horizontal_curve
from oracles import zero_cycle_oracle

import troplin as t
from troplin import cli, curve, embedded, io, klein, linalg
from troplin.errors import IrrationalData
from troplin.manifold import translation_deck


DATA = Path(t.data_path("fig1a.json")).parent

rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=8)


def run_cli(*argv):
    return cli.run(list(argv))


class TestFractionStrings:
    @given(rationals)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, q):
        assert io.parse_frac(io.frac_str(q)) == q

    def test_integer_compact(self):
        assert io.frac_str(Fraction(4, 2)) == "2"
        assert io.frac_str(Fraction(-3, 7)) == "-3/7"

    def test_inf_sentinel(self):
        assert io.length_json(t.INF) == "inf"
        assert io.parse_length("inf") == t.INF


manifold_strategy = st.one_of(
    st.integers(1, 3).map(t.make_euclidean),
    st.tuples(
        st.fractions(min_value=1, max_value=6, max_denominator=3),
        st.fractions(min_value=1, max_value=6, max_denominator=3),
    ).map(lambda xy: t.make_klein(*xy)),
    st.sampled_from([[(4, 0), (0, 4)], [(2, 1), (0, 3)], [(1,)]]).map(t.make_torus),
)


class TestManifoldRoundTrip:
    @given(manifold_strategy)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, M):
        doc = json.loads(json.dumps(io.manifold_json(M)))
        assert io.parse_manifold(doc) == M

    @given(manifold_strategy)
    @settings(max_examples=40, deadline=None)
    def test_product_round_trip(self, M):
        P = t.product_with_line(M)
        doc = json.loads(json.dumps(io.manifold_json(P)))
        assert io.parse_manifold(doc) == P


class TestCurveRoundTrip:
    def test_fig1a(self):
        h = build_fig1a()
        doc = json.loads(json.dumps(io.parametrized_curve_json(h)))
        assert io.parse_parametrized_curve(doc) == h

    def test_fuzzed_modifications(self):
        rng = random.Random(2024)
        for _ in range(20):
            h = random_t2_horizontal_curve(rng)
            doc = json.loads(json.dumps(io.parametrized_curve_json(h)))
            assert io.parse_parametrized_curve(doc) == h

    def test_abstract_only(self):
        curve = t.abstract_curve(
            ["p", "q"], [("e", "p", "q", Fraction(5, 3)), ("r", "p", None, t.INF),
                         ("s", "q", None, t.INF)]
        )
        doc = json.loads(json.dumps(io.abstract_curve_json(curve)))
        assert io.parse_abstract_curve(doc) == curve

    def test_deck_word_accepted(self, torus4):
        doc = {
            "vertices": ["v"],
            "edges": [{"id": "loop", "tail": "v", "head": "v", "length": "4"}],
            "manifold": io.manifold_json(torus4),
            "positions": {"v": ["0", "0"]},
            "edges+": [
                {
                    "id": "loop",
                    "direction": [1, 0],
                    "weight": 1,
                    "image_length": "4",
                    "deck": "t1^-1",
                }
            ],
        }
        h = io.parse_parametrized_curve(doc)
        assert t.validate_parametrized(h).passed


class TestCycleAndFormRoundTrip:
    @given(st.lists(st.tuples(rationals, rationals, st.integers(-3, 3)), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_cycle(self, entries):
        K = t.make_klein(2, 3)
        z = t.zero_cycle(K, [((x, y), m) for x, y, m in entries])
        doc = json.loads(json.dumps(io.cycle_json(z)))
        assert io.parse_cycle(doc, K) == z

    def test_form(self):
        form = t.TropicalForm(3, 2, (1, -2, 5))
        doc = json.loads(json.dumps(io.form_json(form)))
        assert io.parse_form(doc) == form

    def test_graded_space(self):
        area = t.TropicalForm(2, 2, (1,))
        space = t.GradedSpace((t.Block(2, 1, area), t.Block(2, -1, area)))
        doc = json.loads(json.dumps(io.graded_space_json(space, [(1, 0, 1, 0)])))
        space2, vectors = io.parse_graded_space(doc)
        assert space2 == space and vectors == [(1, 0, 1, 0)]


PARSE_MANIFOLDS = [t.make_torus([(1, 0), (0, 1)]), t.make_klein(Fraction(3, 2), Fraction(5, 3))]
PARSE_MANIFOLDS += [t.product_with_line(M) for M in PARSE_MANIFOLDS]
# Small grids, zero, and multiples of half a period, so points land on the
# fundamental domain's edges too.
parse_values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(lambda k, c: Fraction(k, 2) * c, st.integers(-9, 9),
              st.sampled_from([1, Fraction(3, 2), Fraction(5, 3)])),
)


def _render(value: Fraction, form: str):
    """A JSON coordinate for ``value``: an integer, the canonical "p/q", or a
    string Fraction reads but the canonical pattern does not take."""
    if form == "int" and value.denominator == 1:
        return int(value)
    if form == "unreduced":
        return f"{3 * value.numerator}/{3 * value.denominator}"  # "6/4"
    if form == "spaced":
        return f" {value}"
    if form == "signed":
        return "-0" if value == 0 else f"+{value}" if value > 0 else f"{value} "
    return str(value)


coordinates = st.builds(_render, parse_values,
                        st.sampled_from(["int", "canonical", "unreduced", "spaced", "signed"]))


class TestParseCycleToKeys:
    """``parse_cycle`` hands JSON coordinates straight to the point reducer."""

    @given(st.one_of(*[st.tuples(st.just(M), st.lists(st.tuples(
        st.lists(coordinates, min_size=M.dim, max_size=M.dim), st.integers(-3, 3)), max_size=8))
        for M in PARSE_MANIFOLDS]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_path_and_the_oracle(self, case):
        M, drawn = case
        doc = json.loads(json.dumps([{"point": p, "mult": m} for p, m in drawn]))
        items = [(tuple(Fraction(c) for c in p), m) for p, m in drawn]
        z = io.parse_cycle(doc, M)
        assert z == t.zero_cycle(M, items)
        assert repr(z.entries) == repr(zero_cycle_oracle(M, items))
        if M.kind == "klein":
            x0 = M.klein_params[0]
            total = sum((m * Fraction(p[0]) for p, m in zero_cycle_oracle(M, items)), Fraction(0))
            assert t.albanese_class(M, z) == (z.degree, total % x0)

    @pytest.mark.parametrize("M", PARSE_MANIFOLDS, ids=lambda M: f"{M.kind}{M.dim}")
    @pytest.mark.parametrize("bad, message", [
        ("1/0", "cannot parse rational from '1/0'"),
        ("abc", "cannot parse rational from 'abc'"),
        (0.5, "not an exact rational: 0.5 (float)"),
        (None, "not an exact rational: None (NoneType)"),
        ([], "not an exact rational: [] (list)"),
        ("9" * 5000, f"cannot parse rational from {'9' * 5000!r}"),
        (True, "not an exact rational: True (bool)"),
    ], ids=["zero-denominator", "word", "float", "null", "array", "5000-digits", "boolean"])
    def test_bad_coordinates_keep_their_error(self, M, bad, message):
        point = ["1/2"] * M.dim
        for i in range(M.dim):
            doc = [{"point": point, "mult": 1},
                   {"point": point[:i] + [bad] + point[i + 1:], "mult": 1}]
            with pytest.raises(t.InputError) as info:
                io.parse_cycle(doc, M)
            assert type(info.value) is IrrationalData and str(info.value) == message


class TestCLI:
    def test_validate_fig1a(self, capsys):
        assert run_cli("validate", str(t.data_path("fig1a.json"))) == 0
        out = capsys.readouterr().out
        assert "balancing" in out and "pass" in out

    def test_validate_json_mode(self, capsys):
        assert run_cli("--json", "validate", str(t.data_path("fig1a.json"))) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert {c["name"] for c in payload["checks"]} >= {"balancing", "position consistency"}

    def test_validate_multiple_files_in_order(self, capsys):
        f1 = str(t.data_path("fig1a.json"))
        f2 = str(t.data_path("t2-cycle.json"))
        assert run_cli("validate", f1, f2) == 0
        out = capsys.readouterr().out
        assert out.index(f1) < out.index(f2)

    def test_validate_broken_curve_exits_2(self, tmp_path, capsys):
        doc = io.load_json(str(t.data_path("fig1a.json")))
        doc["edges+"][0]["weight"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", str(bad)) == 2

    def test_validate_good_bad_good_reports_in_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TROPLIN_COLOR", "never")
        good = str(t.data_path("fig1a.json"))
        doc = io.load_json(good)
        doc["edges+"][0]["weight"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", good, str(bad), good) == 2
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if not line.startswith(" ")]
        assert headers == [f"{good}: pass", f"{bad}: fail", f"{good}: pass"]

    def test_isotropy_example(self, capsys):
        assert run_cli(
            "isotropy", str(t.data_path("t2-cycle.json")),
            "--form", str(t.data_path("dxdy.json")),
        ) == 0

    def test_chow_equiv_example(self, capsys):
        assert run_cli(
            "chow-equiv", str(t.data_path("klein.json")),
            str(t.data_path("zp.json")), str(t.data_path("ziotap.json")),
        ) == 0
        out = capsys.readouterr().out
        assert "equivalent" in out

    def test_chow_equiv_sums_each_cycle_once(self, monkeypatch, capsys):
        calls = []

        def counted(K, z, original=klein.albanese_class):
            calls.append(z)
            return original(K, z)

        monkeypatch.setattr(klein, "albanese_class", counted)
        monkeypatch.setattr(cli, "albanese_class", counted)
        assert run_cli(
            "chow-equiv", str(t.data_path("klein.json")),
            str(t.data_path("zp.json")), str(t.data_path("ziotap.json")),
        ) == 0
        assert len(calls) == 2

    def test_chow_equiv_negative(self, tmp_path, capsys):
        zshift = tmp_path / "zshift.json"
        zshift.write_text(json.dumps([{"point": ["1", "1"], "mult": 1}]))
        code = run_cli(
            "chow-equiv", str(t.data_path("klein.json")),
            str(t.data_path("zp.json")), str(zshift),
        )
        assert code == 2
        assert "not equivalent" in capsys.readouterr().out

    def test_homology_and_forms_and_deform(self, capsys):
        assert run_cli("homology", str(t.data_path("fig1a.json"))) == 0
        assert "dimension: 3" in capsys.readouterr().out
        assert run_cli("forms", str(t.data_path("klein.json")), "--degree", "1") == 0
        assert "rank 1" in capsys.readouterr().out
        assert run_cli("deform", str(t.data_path("fig1a.json"))) == 0
        assert "dimension: 3" in capsys.readouterr().out

    def test_ev(self, capsys):
        assert run_cli("ev", str(t.data_path("t2-cycle.json"))) == 0
        out = capsys.readouterr().out
        assert "boundary" in out

    def test_roitman(self, tmp_path, capsys):
        area = {"dim": 2, "degree": 2, "coefficients": [1]}
        doc = {
            "blocks": [
                {"dimension": 2, "sign": 1, "form": area},
                {"dimension": 2, "sign": -1, "form": area},
            ],
            "vectors": [["1", "0", "1", "0"], ["0", "1", "0", "1"]],
        }
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        assert run_cli("roitman", str(inst)) == 0

    def test_albanese(self, capsys):
        assert run_cli(
            "albanese", str(t.data_path("klein.json")), str(t.data_path("zp.json"))
        ) == 0
        assert "degree 1" in capsys.readouterr().out

    def test_witness_round_trips_through_validate(self, tmp_path):
        out = tmp_path / "w.json"
        assert run_cli(
            "witness", str(t.data_path("klein.json")),
            "--relation", "two-torsion", "--point", "1/2,1", "-o", str(out),
        ) == 0
        assert run_cli("validate", str(out)) == 0

    def test_witness_special_fiber_exits_2(self, tmp_path):
        assert run_cli(
            "witness", str(t.data_path("klein.json")),
            "--relation", "two-torsion", "--point", "1/2,0",
        ) == 2

    def test_usage_error_exits_1(self):
        assert run_cli("no-such-command") == 1
        assert run_cli("validate") == 1

    def test_parse_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("validate", str(bad)) == 1

    def test_unparsable_rationals_exit_1(self, tmp_path):
        assert run_cli(
            "witness", str(t.data_path("klein.json")),
            "--relation", "fiber", "--point", "abc,1",
        ) == 1
        doc = json.loads(Path(t.data_path("fig1a.json")).read_text())
        finite = next(e for e in doc["edges"] if e.get("length", "inf") != "inf")
        finite["length"] = 0.5
        bad = tmp_path / "float.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", str(bad)) == 1

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPLIN_COLOR", "always")
        run_cli("validate", str(t.data_path("fig1a.json")))
        assert "\x1b[32m" in capsys.readouterr().out
        monkeypatch.setenv("TROPLIN_COLOR", "never")
        run_cli("validate", str(t.data_path("fig1a.json")))
        assert "\x1b[" not in capsys.readouterr().out

    def test_import_leaves_the_thread_pool_out(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, troplin.cli; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                                text=True, env={"PYTHONPATH": str(src)}, check=True)
        assert result.stdout.strip() == "False"

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "troplin.cli", "validate", str(t.data_path("fig1a.json"))],
            capture_output=True, text=True,
        )
        assert result.returncode == 0


class TestAbstractCurveCLI:
    def test_validate_abstract_only_file(self, tmp_path):
        doc = {
            "vertices": ["v"],
            "edges": [
                {"id": "l", "tail": "v", "boundary": True, "length": "inf"},
                {"id": "r", "tail": "v", "boundary": True, "length": "inf"},
            ],
        }
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", str(path)) == 0

    def test_homology_abstract_only_file(self, tmp_path, capsys):
        doc = {
            "vertices": ["p", "q"],
            "edges": [
                {"id": "e1", "tail": "p", "head": "q", "length": "1"},
                {"id": "e2", "tail": "p", "head": "q", "length": "2"},
            ],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        assert run_cli("homology", str(path)) == 0
        assert "dimension: 1" in capsys.readouterr().out

    def test_deform_on_abstract_curve_is_usage_error(self, tmp_path):
        doc = {
            "vertices": ["v"],
            "edges": [
                {"id": "l", "tail": "v", "boundary": True, "length": "inf"},
                {"id": "r", "tail": "v", "boundary": True, "length": "inf"},
            ],
        }
        path = tmp_path / "abs.json"
        path.write_text(json.dumps(doc))
        assert run_cli("deform", str(path)) == 1
        assert run_cli("ev", str(path)) == 1
        assert run_cli("isotropy", str(path)) == 1


def _data(name):
    return str(t.data_path(name))


def _write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMalformedInputExits1:
    """Documents of the wrong shape or kind are usage errors: exit 1 with a
    one-line message, never a traceback and never "check failed"."""

    def assert_usage_error(self, capsys, *argv):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err

    @pytest.mark.parametrize("argv", [
        ("deform", "zp.json"),
        ("validate", "zp.json"),
        ("forms", "-p", "1", "zp.json"),
        ("homology", "ziotap.json"),
        ("ev", "ziotap.json"),
    ])
    def test_zero_cycle_file_where_curve_or_manifold_expected(self, capsys, argv):
        self.assert_usage_error(capsys, *(_data(a) if a.endswith(".json") else a for a in argv))

    def assert_missing(self, capsys, path, message):
        """validate exits 1 with one stderr line naming the missing key."""
        assert run_cli("validate", path) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("parametrized", [False, True], ids=["abstract", "parametrized"])
    @pytest.mark.parametrize("key", ["id", "tail", "head", "length"])
    def test_edge_without_a_key(self, tmp_path, capsys, key, parametrized):
        doc = io.load_json(_data("t2-cycle.json"))
        del doc["edges"][0][key]
        if not parametrized:
            doc = {"vertices": doc["vertices"], "edges": doc["edges"]}
        self.assert_missing(capsys, _write_doc(tmp_path, doc), f"an edge has no {key!r} entry")

    def test_parametrized_curve_without_a_manifold(self, tmp_path, capsys):
        doc = io.load_json(_data("t2-cycle.json"))
        del doc["manifold"]
        self.assert_missing(capsys, _write_doc(tmp_path, doc),
                            "a parametrized curve document has no 'manifold' entry")

    @pytest.mark.parametrize("key", ["id", "image_length"])
    def test_edges_plus_entry_without_a_key(self, tmp_path, capsys, key):
        doc = io.load_json(_data("t2-cycle.json"))
        del doc["edges+"][0][key]
        self.assert_missing(capsys, _write_doc(tmp_path, doc),
                            f"an 'edges+' entry has no {key!r} entry")

    def test_a_deck_is_a_word_string_or_a_matrix_object(self, tmp_path, capsys):
        doc = io.load_json(_data("t2-cycle.json"))
        doc["edges+"][1]["deck"] = {"word": "t1^-1"}
        self.assert_missing(capsys, _write_doc(tmp_path, doc),
                            "a deck element has no 'matrix' entry")
        doc["edges+"][1]["deck"] = "t1^-1"
        assert run_cli("validate", _write_doc(tmp_path, doc)) == 0

    def test_non_list_edges(self, tmp_path, capsys):
        path = _write_doc(tmp_path, {"vertices": ["v"], "edges": 5})
        self.assert_usage_error(capsys, "validate", path)

    def test_klein_without_block_or_generator_b(self, tmp_path, capsys):
        doc = io.load_json(_data("klein.json"))
        del doc["klein"]
        doc["generators"] = [g for g in doc["generators"] if g["name"] != "b"]
        self.assert_usage_error(capsys, "forms", "-p", "1", _write_doc(tmp_path, doc))

    def test_klein_without_block_reads_generators(self, tmp_path, capsys):
        doc = io.load_json(_data("klein.json"))
        del doc["klein"]
        assert run_cli("forms", "-p", "1", _write_doc(tmp_path, doc)) == 0
        assert "rank 1" in capsys.readouterr().out

    def test_albanese_on_a_torus(self, tmp_path, capsys):
        torus = _write_doc(tmp_path, io.manifold_json(t.make_torus([(4, 0), (0, 4)])))
        self.assert_usage_error(capsys, "albanese", torus, _data("zp.json"))

    def test_wrong_length_point(self, tmp_path, capsys):
        cycle = _write_doc(tmp_path, [{"point": ["1", "2", "3"], "mult": 1}])
        assert run_cli("albanese", _data("klein.json"), cycle) == 1
        assert capsys.readouterr().err.strip() == "error: point dimension mismatch"

    def test_unknown_manifold_kind(self, tmp_path, capsys):
        sphere = _write_doc(tmp_path, {"kind": "sphere", "dim": 2, "generators": []})
        self.assert_usage_error(capsys, "forms", "-p", "1", sphere)

    def test_product_without_base(self, tmp_path, capsys):
        product = _write_doc(tmp_path, {"kind": "product_with_line", "dim": 3, "generators": []})
        self.assert_usage_error(capsys, "forms", "-p", "1", product)

    @pytest.mark.parametrize("command", ["ev", "isotropy"])
    def test_curve_outside_a_product_with_a_line(self, capsys, command):
        self.assert_usage_error(capsys, command, _data("fig1a.json"))

    def test_torus_with_dependent_translations(self, tmp_path, capsys):
        torus = _write_doc(tmp_path, {"kind": "torus", "dim": 2, "generators": [
            {"name": "t1", "translation": ["1", "2"]},
            {"name": "t2", "translation": ["2", "4"]},
        ]})
        self.assert_usage_error(capsys, "forms", "-p", "1", torus)

    def test_klein_with_negative_parameter(self, tmp_path, capsys):
        doc = io.load_json(_data("klein.json"))
        doc["klein"]["x0"] = "-1"
        self.assert_usage_error(capsys, "forms", "-p", "1", _write_doc(tmp_path, doc))

    def test_torus_generators_that_are_not_translations(self, tmp_path, capsys):
        torus = _write_doc(tmp_path, {"kind": "torus", "dim": 2, "generators": [
            {"name": "t1", "matrix": [[0, 1], [1, 0]], "translation": ["4", "0"]},
            {"name": "t2", "matrix": [[7, 0], [0, 7]], "translation": ["0", "4"]},
        ]})
        self.assert_usage_error(capsys, "forms", "--degree", "1", torus)

    def test_klein_generator_disagrees_with_the_block(self, tmp_path, capsys):
        doc = io.load_json(_data("klein.json"))
        b = next(g for g in doc["generators"] if g["name"] == "b")
        b["matrix"], b["translation"] = [[1, 0], [0, 1]], ["7", "0"]
        assert doc["klein"] == {"x0": "2", "y0": "3"}
        self.assert_usage_error(capsys, "albanese", _write_doc(tmp_path, doc), _data("zp.json"))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_product_dimension_not_base_plus_one(self, tmp_path, capsys, dim):
        doc = io.manifold_json(t.product_with_line(t.make_torus([(4, 0), (0, 4)])))
        doc["dim"] = dim
        self.assert_usage_error(capsys, "forms", "--degree", "1", _write_doc(tmp_path, doc))

    def test_product_generators_disagree_with_the_base(self, tmp_path, capsys):
        doc = io.manifold_json(t.product_with_line(t.make_torus([(4, 0), (0, 4)])))
        doc["generators"][0]["translation"] = ["5", "0", "0"]
        self.assert_usage_error(capsys, "forms", "--degree", "1", _write_doc(tmp_path, doc))

    def test_isotropy_degree_below_two(self, capsys):
        self.assert_usage_error(capsys, "isotropy", _data("t2-cycle.json"), "--degree", "1")

    @pytest.mark.parametrize("form", [
        {"dim": 2, "degree": 1, "coefficients": [1, 0]},
        {"dim": 3, "degree": 2, "coefficients": [1, 0, 0]},
    ], ids=["one-form", "wrong-dimension"])
    def test_isotropy_form_of_the_wrong_shape(self, tmp_path, capsys, form):
        path = _write_doc(tmp_path, form, "form.json")
        self.assert_usage_error(capsys, "isotropy", _data("t2-cycle.json"), "--form", path)

    AREA = {"dim": 2, "degree": 2, "coefficients": [1]}

    @pytest.mark.parametrize("doc", [
        {"blocks": [{"dimension": 2, "sign": 1, "form": AREA}], "vectors": [["1", "0", "5"]]},
        {"blocks": [{"dimension": 3, "sign": 1, "form": AREA}]},
        {"blocks": [
            {"dimension": 2, "sign": 1, "form": AREA},
            {"dimension": 2, "sign": -1, "form": {"dim": 2, "degree": 1, "coefficients": [1, 0]}},
        ]},
    ], ids=["vector-too-long", "form-on-wrong-space", "mixed-degrees"])
    def test_roitman_document_of_the_wrong_shape(self, tmp_path, capsys, doc):
        self.assert_usage_error(capsys, "roitman", _write_doc(tmp_path, doc))

    @pytest.mark.parametrize("dim, degree, coefficients", [(-1, 0, [1]), (2, -1, [])],
                             ids=["dimension", "degree"])
    def test_roitman_form_of_negative_size(self, tmp_path, capsys, dim, degree, coefficients):
        """A negative dimension once counted one empty subset of range(-1)
        and reached the bound check, which failed with exit 2."""
        form = {"dim": dim, "degree": degree, "coefficients": coefficients}
        doc = {"blocks": [{"dimension": dim, "sign": 1, "form": form}], "vectors": []}
        assert run_cli("roitman", _write_doc(tmp_path, doc)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("name, path", [
        ("zp.json", (0, "point", 0)),
        ("zp.json", (0, "mult")),
        ("fig1a.json", ("positions", "q", 1)),
        ("fig1a.json", ("edges", 2, "length")),
        ("fig1a.json", ("edges+", 2, "image_length")),
        ("fig1a.json", ("edges+", 2, "weight")),
        ("fig1a.json", ("edges+", 2, "direction", 0)),
        ("t2-cycle.json", ("edges+", 1, "deck", "matrix", 0, 0)),
        ("klein.json", ("klein", "x0")),
        ("dxdy.json", ("coefficients", 0)),
    ], ids=["coordinate", "multiplicity", "position", "length", "image-length", "weight",
            "direction", "matrix-entry", "klein-period", "form-coefficient"])
    def test_boolean_in_a_number_slot(self, tmp_path, capsys, name, path):
        """A JSON boolean is not a number: the command that reads the slot
        exits 0 on the bundled file and 1, with one line, once the slot
        holds ``true``."""
        command = {
            "zp.json": lambda f: ["albanese", _data("klein.json"), f],
            "fig1a.json": lambda f: ["validate", f],
            "t2-cycle.json": lambda f: ["validate", f],
            "klein.json": lambda f: ["albanese", f, _data("zp.json")],
            "dxdy.json": lambda f: ["isotropy", _data("t2-cycle.json"), "--form", f],
        }[name]
        doc = io.load_json(_data(name))
        assert run_cli(*command(_write_doc(tmp_path, doc))) == 0
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = True
        capsys.readouterr()
        self.assert_usage_error(capsys, *command(_write_doc(tmp_path, doc)))

    def test_boolean_point_and_multiplicity(self, tmp_path, capsys):
        cycle = _write_doc(tmp_path, [{"point": [True, "1/2"], "mult": True}])
        assert run_cli("--json", "albanese", _data("klein.json"), cycle) == 1
        assert capsys.readouterr().err == "error: not an exact rational: True (bool)\n"


class TestManifoldDocumentsAgree:
    """Every generator of a manifold document is parsed, under its name."""

    def test_torus_generator_names_resolve_words(self):
        doc = io.manifold_json(t.make_torus([(4, 0), (0, 4)]))
        for g, name in zip(doc["generators"], "ab"):
            g["name"] = name
        T = io.parse_manifold(doc)
        assert T.names == ("a", "b")
        assert io.parse_deck("a^-1", T) == translation_deck((-4, 0))

    def test_klein_without_block_matches_make_klein(self):
        doc = io.load_json(_data("klein.json"))
        del doc["klein"]
        assert io.parse_manifold(doc) == t.make_klein(2, 3)


class TestEvValidatesItsCurve:
    def test_unbalanced_ray_weight_exits_2_like_isotropy(self, tmp_path, capsys):
        doc = io.load_json(_data("t2-cycle.json"))
        next(e for e in doc["edges+"] if e["id"] == "ray0")["weight"] = 5
        path = _write_doc(tmp_path, doc)
        assert run_cli("isotropy", path) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("check failed: ") and expected.count("\n") == 1
        assert run_cli("ev", path) == 2
        captured = capsys.readouterr()
        assert captured.err == expected and captured.out == ""


class TestHomologyValidatesOnce:
    def test_one_abstract_validation(self, monkeypatch, capsys):
        """relative_h1_basis and locally_constant_forms share the verdict the
        read-only abstract curve keeps."""
        calls = []
        validate = curve.validate_abstract
        for module in (curve, embedded):
            monkeypatch.setattr(module, "validate_abstract", lambda c: calls.append(c) or validate(c))
        assert run_cli("homology", _data("t2-cycle.json")) == 0
        assert len(calls) == 1

    def test_one_elimination(self, monkeypatch, capsys):
        """The cycle basis and both dimensions come from one kernel: the
        boundary map is the vertex equations negated."""
        calls = []
        kernel = linalg._kernel
        monkeypatch.setattr(linalg, "_kernel", lambda M: calls.append(M) or kernel(M))
        assert run_cli("homology", _data("t2-cycle.json")) == 0
        assert len(calls) == 1


class TestTiltedRayExits2:
    """A curve in B x R with a tilted ray is not horizontal at infinity: every
    command that reads its ends exits 2 with the same one-line message."""

    @pytest.mark.parametrize("command", ["ev", "isotropy"])
    def test_tilted_ray(self, tmp_path, capsys, command):
        h = t.parametrized_curve(
            t.product_with_line(t.make_torus([(4, 0), (0, 4)])),
            t.abstract_curve("v", [("up", "v", None, t.INF), ("dn", "v", None, t.INF)]),
            {"v": (0, 0, 0)},
            {
                "up": dict(direction=(1, 0, 1), image_length=t.INF),
                "dn": dict(direction=(-1, 0, -1), image_length=t.INF),
            },
        )
        path = _write_doc(tmp_path, io.parametrized_curve_json(h))
        assert run_cli(command, path) == 2
        err = capsys.readouterr().err
        assert err == "check failed: curve has a non-vertical semi-infinite edge\n"


BUNDLED = ["fig1a.json", "t2-cycle.json", "klein.json", "zp.json", "ziotap.json", "dxdy.json"]
WRONG_TYPED_KEYS = ("kind", "edges", "vertices", "generators")
scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4))
wrong_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), scalars, max_size=2),
)


def _objects_in(node, found):
    """Every JSON object inside a document, the document included."""
    if isinstance(node, dict):
        found.append(node)
        for value in node.values():
            _objects_in(value, found)
    elif isinstance(node, list):
        for value in node:
            _objects_in(value, found)
    return found


@st.composite
def malformed_documents(draw):
    """A bundled document with one defect: replaced by a non-object, one key
    removed from one of its objects, or one of ``kind``, ``edges``,
    ``vertices`` and ``generators`` given a value of the wrong type."""
    doc = io.load_json(_data(draw(st.sampled_from(BUNDLED))))
    defect = draw(st.sampled_from(["non-object", "missing key", "wrong type"]))
    if defect == "non-object":
        return draw(st.one_of(scalars, st.lists(scalars, max_size=3)))
    objects = _objects_in(doc, [])
    if defect == "wrong type":
        objects = [o for o in objects if any(k in o for k in WRONG_TYPED_KEYS)] or objects
    target = draw(st.sampled_from(objects))
    if defect == "missing key":
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
    else:
        key = draw(st.sampled_from([k for k in WRONG_TYPED_KEYS if k in target]
                                   or list(WRONG_TYPED_KEYS)))
        target[key] = draw(wrong_values)
    return doc


NAME_KEYS = ("vertices", "id", "tail", "head", "name", "kind")


def _is_rational(value) -> bool:
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _number_slots(node, path=()):
    """Paths to every number in a document: an int (not a boolean) or a
    rational string, but no name, kind or "inf"."""
    if isinstance(node, dict):
        items = [(k, v) for k, v in node.items() if k not in NAME_KEYS]
    else:
        items = list(enumerate(node))
    slots = []
    for key, value in items:
        if isinstance(value, (dict, list)):
            slots += _number_slots(value, (*path, key))
        elif type(value) is int or isinstance(value, str) and _is_rational(value):
            slots.append((*path, key))
    return slots


@st.composite
def boolean_slots(draw):
    """A bundled document, the path to one of its number slots, and a boolean."""
    doc = io.load_json(_data(draw(st.sampled_from(BUNDLED))))
    return doc, draw(st.sampled_from(_number_slots(doc))), draw(st.booleans())


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def _invocations(bad: str) -> list[list[str]]:
    return [
        ["validate", bad], ["homology", bad], ["forms", "-p", "1", bad],
        ["deform", bad], ["ev", bad], ["isotropy", bad],
        ["isotropy", _data("t2-cycle.json"), "--form", bad], ["roitman", bad],
        ["albanese", bad, _data("zp.json")], ["albanese", _data("klein.json"), bad],
        ["chow-equiv", bad, _data("zp.json"), _data("ziotap.json")],
        ["chow-equiv", _data("klein.json"), _data("zp.json"), bad],
        ["witness", bad, "--relation", "fiber", "--point", "1/2,1"],
        ["witness", bad, "--relation", "two-torsion", "--point", "1/2,1"],
    ]


def _run_quietly(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class TestMalformedDocumentProperty:
    @given(malformed_documents())
    @settings(max_examples=120, deadline=None)
    def test_every_subcommand_exits_0_1_or_2(self, doc):
        """No malformed document makes any subcommand raise, and a usage
        error prints nothing on stdout."""
        with tempfile.TemporaryDirectory() as tmp:
            bad = str(Path(tmp) / "bad.json")
            Path(bad).write_text(json.dumps(doc))
            for argv in _invocations(bad):
                code, out, _ = _run_quietly(argv)
                assert code in (0, 1, 2), argv
                assert code != 1 or out == "", argv

    @given(boolean_slots())
    @settings(max_examples=60, deadline=None)
    def test_a_boolean_number_exits_1_where_a_word_does(self, case):
        """A boolean in a number slot exits exactly as the word "x" there does:
        1 with one line wherever the slot is read, and unchanged where the
        command never reads it (a torus generator's matrix, say)."""
        doc, path, flag = case
        with tempfile.TemporaryDirectory() as tmp:
            boolean, word = str(Path(tmp) / "boolean.json"), str(Path(tmp) / "word.json")
            Path(boolean).write_text(json.dumps(_replaced(doc, path, flag)))
            Path(word).write_text(json.dumps(_replaced(doc, path, "x")))
            for argv, control in zip(_invocations(boolean), _invocations(word)):
                code, _, err = _run_quietly(argv)
                assert code == _run_quietly(control)[0], (argv, path)
                if code == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, err
