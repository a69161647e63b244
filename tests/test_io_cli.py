"""Serialization round trips, file formats, and the command line."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_fig1a, random_t2_horizontal_curve

import troplin as t
from troplin import cli, io


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
