import json

import pytest

from volquandle.cli import main
from volquandle.fixtures import (
    FIG8_HOLONOMY,
    FIG8_HOLONOMY_REVERSED,
    FIG8_PD,
    FIG8_VOLUME,
)
from volquandle.invariant import tally_colorings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDilog:
    def test_maximum(self, capsys):
        code, out, _ = run(capsys, "dilog", "0.5", "0.8660254037844386")
        assert code == 0
        assert out.strip() == "1.014941606410"

    def test_real_axis(self, capsys):
        code, out, _ = run(capsys, "dilog", "0.3", "0")
        assert code == 0
        assert float(out) == 0.0

    def test_conjugate_antisymmetry(self, capsys):
        code, out, _ = run(capsys, "dilog", "0.5", "-0.8660254037844386")
        assert code == 0
        assert out.strip() == "-1.014941606410"

    def test_parse_failure_exit_2(self, capsys):
        code, _, err = run(capsys, "dilog", "abc", "0")
        assert code == 2
        assert "real numbers" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dilog", "0.5", "0.8660254037844386", "--json")
        doc = json.loads(out)
        assert abs(doc["D"] - 1.0149416064096535) < 1e-12


class TestParse:
    def test_fixture_text(self, capsys):
        code, out, _ = run(capsys, "parse", "--fixture", "fig8")
        assert code == 0
        assert "crossings: 4" in out
        assert "writhe: 0" in out

    def test_pd_file(self, capsys, tmp_path):
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, out, _ = run(capsys, "parse", "--pd", str(pd), "--json")
        doc = json.loads(out)
        assert doc["n_crossings"] == 4
        assert doc["n_regions"] == 6

    def test_malformed_exit_1(self, capsys, tmp_path):
        pd = tmp_path / "bad.pd"
        pd.write_text("X(1,2,3)")
        code, _, err = run(capsys, "parse", "--pd", str(pd))
        assert code == 1
        assert "MalformedTerm" in err

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "parse", "--fixture", "nope")
        assert code == 1


class TestVolume:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "volume", "--fixture", "fig8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1
        assert abs(doc["phi"] - FIG8_VOLUME) < 1e-6

    def test_other_base_meridian_stays_on_lattice(self, capsys):
        code, out, _ = run(
            capsys, "volume", "--fixture", "fig8", "--base-meridian", "y", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] in (-1, 0, 1)
        assert doc["residual"] < 1e-6

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "inf"])
    def test_nonpositive_or_nonfinite_tol_exit_1(self, capsys, tol):
        code, _, err = run(capsys, "volume", "--fixture", "fig8", f"--tol={tol}")
        assert code == 1
        assert "tol must be positive and finite" in err

    def test_missing_holonomy_exit_1(self, capsys, tmp_path):
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, _, _ = run(capsys, "volume", "--pd", str(pd))
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = run(
            capsys, "volume", "--fixture", "fig8", "--holonomy", "/no/such.json"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "declared", ["Infinity", "NaN", "0", "-1", '"abc"'],
    )
    def test_bad_declared_volume_exit_1(self, capsys, tmp_path, declared):
        # json.dumps would refuse Infinity and NaN: write the number as text
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(FIG8_HOLONOMY)[:-1] + f', "volume": {declared}}}')
        assert json.loads(hol.read_text())["volume"] is not None
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        for command in ("volume", "symmetry"):
            code, _, err = run(
                capsys, command, "--pd", str(pd), "--holonomy", str(hol), "--json"
            )
            assert code == 1
            assert "BadMatrix: declared volume" in err

    def test_wrong_declared_volume_exit_2(self, capsys, tmp_path):
        doc = dict(FIG8_HOLONOMY)
        doc["volume"] = 1.0
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(doc))
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, _, err = run(
            capsys, "volume", "--pd", str(pd), "--holonomy", str(hol)
        )
        assert code == 2
        assert "state sum" in err


class TestInvariant:
    def test_negative_witness(self, capsys, tmp_path, fig8, rep):
        tally = tally_colorings(fig8, rep, depth=1, cap=10**5)
        doc = tally.first_witness[-1].to_json_dict()
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "invariant", "--fixture", "fig8",
            "--coloring", str(path), "--json",
        )
        assert code == 0
        assert json.loads(out)["k"] == -1

    def test_invalid_coloring_exit_1(self, capsys, tmp_path, fig8, rep):
        from volquandle.invariant import natural_coloring

        doc = natural_coloring(fig8, rep).to_json_dict()
        doc["arcs"]["0"] = doc["arcs"]["1"]
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "invariant", "--fixture", "fig8", "--coloring", str(path)
        )
        assert code == 1
        assert "ColoringInvalid" in err

    def test_missing_coloring_flag(self, capsys):
        code, _, _ = run(capsys, "invariant", "--fixture", "fig8")
        assert code == 1

    ARCS = {"0": "x", "1": "y", "2": "x^-1 y x", "3": "y x^-1 y x y^-1"}

    @pytest.mark.parametrize("doc, message", [
        ({"arcs": {i: t for i, t in ARCS.items() if i != "2"}},
         "arcs [0, 1, 3] are not 0..3"),
        ({"arcs": dict(ARCS, **{"7": "x"})}, "arcs [0, 1, 2, 3, 7] are not 0..3"),
        ({"regions": {}}, "malformed coloring document"),
        ({"arcs": dict(ARCS, two="x")}, "malformed coloring document"),
        # every region "x": the rule fails on every edge whose arc is not x
        ({"arcs": ARCS, "regions": {str(r): "x" for r in range(6)}}, "region rule"),
    ], ids=["missing arc", "unknown arc", "regions only", "arc id text", "region rule"])
    def test_bad_document_is_coloring_invalid(self, capsys, tmp_path, doc, message):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "invariant", "--fixture", "fig8", "--coloring", str(path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ColoringInvalid: ")
        assert message in err


class TestReplayableWitnesses:
    """Each `symmetry` witness is a coloring document `invariant` rechecks."""

    @pytest.fixture(scope="class")
    def witnesses(self):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["symmetry", "--fixture", "fig8", "--depth", "2", "--json"]) == 0
        return json.loads(out.getvalue())["witnesses"]

    @pytest.mark.parametrize("flag, holonomy, k", [
        ("negatively_amphicheiral", None, -1),
        ("invertible", FIG8_HOLONOMY_REVERSED, 1),
        ("positively_amphicheiral", FIG8_HOLONOMY_REVERSED, -1),
    ])
    def test_witness_replays_with_its_k(
        self, capsys, tmp_path, witnesses, flag, holonomy, k
    ):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"arcs": witnesses[flag]}))
        if holonomy is None:
            inputs = ["--fixture", "fig8"]
        else:
            pd, hol = tmp_path / "k.pd", tmp_path / "h.json"
            pd.write_text(FIG8_PD)
            hol.write_text(json.dumps(holonomy))
            inputs = ["--pd", str(pd), "--holonomy", str(hol)]
        code, out, err = run(
            capsys, "invariant", *inputs, "--coloring", str(path), "--json"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["k"] == k
        assert doc["residual"] < 1e-6

    def test_reversed_generator_inverse_reads_back(self, witnesses):
        # a reversed generator is named "x^-1"; its inverse prints "x^-1^-1"
        assert witnesses["invertible"]["2"] == "x^-1^-1 w^-1 x^-1"


class TestEnumerate:
    def test_depth_one_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--fixture", "fig8", "--depth", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k_counts"]["1"] > 0
        assert doc["k_counts"]["-1"] > 0
        assert doc["truncated"] is False

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "enumerate", "--fixture", "fig8", "--depth", "1", "--json")
        _, b, _ = run(capsys, "enumerate", "--fixture", "fig8", "--depth", "1", "--json")
        assert a == b

    def test_depth_guard(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--fixture", "fig8", "--depth", "9")
        assert code == 1

    def test_cap_guard(self, capsys):
        code, _, _ = run(
            capsys, "enumerate", "--fixture", "fig8", "--cap", "2000000"
        )
        assert code == 1


class TestSymmetry:
    def test_depth_one_all_detected(self, capsys):
        code, out, _ = run(
            capsys, "symmetry", "--fixture", "fig8", "--depth", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["negatively_amphicheiral"] == "detected"
        assert doc["invertible"] == "detected"
        assert doc["positively_amphicheiral"] == "detected"
        counts = {"-1": 192, "0": 256, "1": 288}
        assert doc["standard"]["k_counts"] == counts
        assert doc["reversed"]["k_counts"] == {str(-int(k)): v for k, v in counts.items()}
        for side in ("standard", "reversed"):
            assert doc[side]["total_colorings"] == 736
            assert doc[side]["truncated"] is False
        assert doc["witnesses"] == {
            "negatively_amphicheiral": {"0": "x", "1": "z", "2": "y", "3": "y x y^-1"},
            "invertible": {
                "0": "x^-1", "1": "w^-1", "2": "x^-1^-1 w^-1 x^-1", "3": "z^-1",
            },
            "positively_amphicheiral": {
                "0": "x^-1", "1": "y^-1", "2": "z^-1", "3": "w^-1",
            },
        }

    def test_depth_two_is_one_checked_document(self, capsys):
        # what the benchmark's symmetry-d2 workload checks of its output
        code, out, _ = run(
            capsys, "symmetry", "--fixture", "fig8", "--depth", "2", "--json"
        )
        assert code == 0
        doc = json.loads(out)  # raises unless stdout is exactly one document
        counts = {"-1": 5168, "0": 4624, "1": 6664}
        assert doc["standard"]["k_counts"] == counts
        assert doc["reversed"]["k_counts"] == {str(-int(k)): v for k, v in counts.items()}
        for side in ("standard", "reversed"):
            assert doc[side]["total_colorings"] == 16456
            assert doc[side]["truncated"] is False
            assert isinstance(doc[side]["max_residual"], float)
            assert doc[side]["max_residual"] < 1e-6
        for flag in ("negatively_amphicheiral", "invertible", "positively_amphicheiral"):
            assert doc[flag] == "detected"
            assert sorted(doc["witnesses"][flag]) == ["0", "1", "2", "3"]

    def test_partial_mode_via_explicit_files(self, capsys, tmp_path):
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(FIG8_HOLONOMY))
        code, out, _ = run(
            capsys, "symmetry", "--pd", str(pd), "--holonomy", str(hol),
            "--depth", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["invertible"] == "not computed"
        assert doc["positively_amphicheiral"] == "not computed"


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["parse", "--holonomy", "h.json"],
        ["parse", "--precision", "3"],
        ["volume", "--depth", "99"],
        ["volume", "--cap", "5"],
        ["invariant", "--depth", "1"],
        ["invariant", "--cap", "5"],
        ["symmetry", "--base-meridian", "y"],
        ["symmetry", "--precision", "3"],
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--fixture", "fig8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonRoundTrip:
    def test_volume_json_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "volume", "--fixture", "fig8")
        _, json_out, _ = run(capsys, "volume", "--fixture", "fig8", "--json")
        doc = json.loads(json_out)
        phi_line = next(l for l in text_out.splitlines() if l.startswith("phi"))
        assert float(phi_line.split("=")[1]) == doc["phi"]
