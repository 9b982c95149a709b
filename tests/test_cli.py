import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import volquandle
from volquandle.cli import build_parser, main
from volquandle.fixtures import (
    FIG8_HOLONOMY,
    FIG8_HOLONOMY_REVERSED,
    FIG8_PD,
    FIG8_PD_R2,
    FIG8_VOLUME,
)
from volquandle.invariant import tally_colorings


def conjugate(doc):
    """The complex conjugate holonomy: every entry [re, im] -> [re, -im]."""
    matrices = {
        name: [[[re, -im] for re, im in row] for row in m]
        for name, m in doc["matrices"].items()
    }
    return dict(doc, matrices=matrices)


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

    @pytest.mark.parametrize("precision", ["-1", "0"])
    def test_precision_below_one_exit_1(self, capsys, precision):
        code, out, err = run(capsys, "dilog", "0.5", "0.5", f"--precision={precision}")
        assert (code, out) == (1, "")
        assert "InputError: precision must be at least 1" in err

    @pytest.mark.parametrize("re_im", [("nan", "1"), ("1", "nan"), ("nan", "nan")])
    def test_nan_is_no_point_exit_2(self, capsys, re_im):
        code, out, err = run(capsys, "dilog", *re_im)
        assert (code, out) == (2, "")
        assert "arguments must be real numbers" in err

    def test_infinity_is_zero(self, capsys):
        code, out, _ = run(capsys, "dilog", "inf", "0")
        assert code == 0
        assert out.strip() == "0.000000000000"


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

    def test_one_generator_per_arc(self, capsys, tmp_path):
        # the R2 diagram, one generator per arc: e and f repeat c's and d's
        # matrices, and no volume is declared, so the natural coloring sets V
        names = dict(zip("abcdef", ("y", "z", "w", "x", "w", "x")))
        pd, hol = tmp_path / "k.pd", tmp_path / "h.json"
        pd.write_text(FIG8_PD_R2)
        hol.write_text(json.dumps({
            "generators": list(names),
            "matrices": {n: FIG8_HOLONOMY["matrices"][g] for n, g in names.items()},
        }))
        inputs = ["--pd", str(pd), "--holonomy", str(hol), "--json"]
        code, out, _ = run(capsys, "volume", *inputs)
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1
        assert abs(doc["phi"] - FIG8_VOLUME) < 1e-9
        code, out, _ = run(capsys, "enumerate", *inputs, "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["k_counts"] == {"-1": 192, "0": 256, "1": 288}
        assert doc["total_colorings"] == 736

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

    @pytest.mark.parametrize("generators", ["xyzw", ["x", "x", "y", "z", "w"]])
    def test_malformed_generators_exit_1(self, capsys, tmp_path, generators):
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(dict(FIG8_HOLONOMY, generators=generators)))
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, out, err = run(capsys, "volume", "--pd", str(pd), "--holonomy", str(hol))
        assert (code, out) == (1, "")
        assert "BadMatrix: generators must be a list of distinct names" in err

    @pytest.mark.parametrize("matrices, message", [
        ("xyzw", "matrices must be an object"),
        # json writes these floats as the NaN and Infinity it also reads
        (dict(FIG8_HOLONOMY["matrices"], x=[[[float("nan"), 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]),
         "matrix entries must be finite"),
        (dict(FIG8_HOLONOMY["matrices"], x=[[[float("inf"), 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]),
         "matrix entries must be finite"),
    ], ids=["text", "NaN entry", "Infinity entry"])
    def test_malformed_matrices_exit_1(self, capsys, tmp_path, matrices, message):
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(dict(FIG8_HOLONOMY, matrices=matrices)))
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, out, err = run(capsys, "volume", "--pd", str(pd), "--holonomy", str(hol))
        assert (code, out) == (1, "")
        assert f"BadMatrix: {message}" in err

    def test_wrong_declared_volume_exit_1(self, capsys, tmp_path):
        # the declared volume is checked against the natural state sum
        doc = dict(FIG8_HOLONOMY)
        doc["volume"] = 1.0
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(doc))
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        code, out, err = run(
            capsys, "volume", "--pd", str(pd), "--holonomy", str(hol)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: InputError: declared volume 1.0 is not")


class TestReferenceVolume:
    """V is each document's natural state sum, on its own diagram."""

    @pytest.mark.parametrize(
        "holonomy", [FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED], ids=["std", "rev"]
    )
    def test_volume_of_each_orientation(self, capsys, tmp_path, holonomy):
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(holonomy))
        code, out, err = run(
            capsys, "volume", "--fixture", "fig8", "--holonomy", str(hol), "--json"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["phi"], doc["k"], doc["residual"]) == (doc["volume"], 1, 0.0)
        assert abs(doc["volume"] - FIG8_VOLUME) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["symmetry", "--holonomy-reversed"],
        ["enumerate", "--holonomy"],
    ], ids=["symmetry", "enumerate"])
    def test_reversed_document_without_volume(self, capsys, tmp_path, argv):
        undeclared = dict(FIG8_HOLONOMY_REVERSED)
        del undeclared["volume"]
        docs = []
        for holonomy in (FIG8_HOLONOMY_REVERSED, undeclared):
            hol = tmp_path / "h.json"
            hol.write_text(json.dumps(holonomy))
            code, out, err = run(
                capsys, argv[0], "--fixture", "fig8", argv[1], str(hol),
                "--depth", "1", "--json",
            )
            assert (code, err) == (0, "")
            docs.append(json.loads(out))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("flag, holonomy", [
        ("--holonomy", conjugate(FIG8_HOLONOMY)),
        ("--holonomy-reversed", conjugate(FIG8_HOLONOMY_REVERSED)),
        ("--holonomy-reversed", dict(FIG8_HOLONOMY, orientation="reversed")),
        ("--holonomy", dict(FIG8_HOLONOMY_REVERSED, orientation="standard")),
    ], ids=["conjugate std", "conjugate rev", "std tagged reversed",
            "rev tagged standard"])
    def test_natural_state_sum_of_minus_v_exit_1(
        self, capsys, tmp_path, flag, holonomy
    ):
        # each is the conjugate of the holonomy of its slot's orientation:
        # its natural coloring, k = -1, would witness a flag on any knot
        hol = tmp_path / "h.json"
        hol.write_text(json.dumps(holonomy))
        code, out, err = run(
            capsys, "symmetry", "--fixture", "fig8", flag, str(hol), "--depth", "0"
        )
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: InputError: the natural coloring's state sum is -2.0298832128"
        )


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
        # region colors are no input, even ones that break the region rule
        ({"arcs": ARCS, "regions": {str(r): "x" for r in range(6)}},
         "unknown key 'regions'"),
        # a word is text: a letter pair's exponent would reach the fold as a sign
        *[({"arcs": {"0": "x", "1": "z", "2": "y",
                     "3": [["y", 1], ["x", 1], ["y", exp]]}},
           "arc '3': the word") for exp in (2, "-1", -1.0)],
        # an id is the arc number as written by `symmetry`, and names one arc
        ({"arcs": {"0": "y", "00": "y", "1": "z", "2": "w", "3": "x"}},
         "arc id '00'"),
        ({"arcs": {"0": "x", " 1": "y", "2": "x^-1 y x", "3": "y x^-1 y x y^-1"}},
         "arc id ' 1'"),
        ({"arcs": {"0": "x", "1": "y", "+2": "x^-1 y x", "3": "y x^-1 y x y^-1"}},
         "arc id '+2'"),
    ], ids=["missing arc", "unknown arc", "regions only", "arc id text", "regions key",
            "exponent 2", "exponent text", "exponent float", "id 00", "id space",
            "id plus"])
    def test_bad_document_is_coloring_invalid(self, capsys, tmp_path, doc, message):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "invariant", "--fixture", "fig8", "--coloring", str(path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ColoringInvalid: ")
        assert message in err

    @pytest.mark.parametrize("base", [5, None, []], ids=["int", "null", "list"])
    def test_base_meridian_not_a_word(self, capsys, tmp_path, base):
        # w is no input: "base_meridian" is an unknown key, a word or not
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({"arcs": self.ARCS, "base_meridian": base}))
        code, out, err = run(
            capsys, "invariant", "--fixture", "fig8", "--coloring", str(path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ColoringInvalid: unknown key 'base_meridian'")

    def test_base_meridian_word(self, capsys, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({"arcs": self.ARCS, "base_meridian": "x"}))
        code, out, err = run(
            capsys, "invariant", "--fixture", "fig8",
            "--coloring", str(path), "--json",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ColoringInvalid: unknown key 'base_meridian'")


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

    def test_wrong_declared_volume_reports_no_flag(self, capsys, tmp_path):
        # V = 1 is not the natural state sum 2.03 of either document
        pd = tmp_path / "k.pd"
        pd.write_text(FIG8_PD)
        argv = ["symmetry", "--pd", str(pd), "--depth", "1", "--json"]
        for flag, holonomy in (("--holonomy", FIG8_HOLONOMY),
                               ("--holonomy-reversed", FIG8_HOLONOMY_REVERSED)):
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(dict(holonomy, volume=1.0)))
            argv += [flag, str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: InputError: declared volume 1.0 is not")

    @pytest.mark.parametrize("holonomy, message", [
        (FIG8_HOLONOMY, "the reversed holonomy is tagged 'standard'"),
        (FIG8_HOLONOMY_REVERSED, "the standard holonomy is tagged 'reversed'"),
    ], ids=["std twice", "rev twice"])
    def test_document_in_the_wrong_slot_exit_1(
        self, capsys, tmp_path, holonomy, message
    ):
        # one document in both slots: read as the other orientation, its
        # generator coloring (k = +1 on any knot) would witness a flag
        pd, hol = tmp_path / "k.pd", tmp_path / "h.json"
        pd.write_text(FIG8_PD)
        hol.write_text(json.dumps(holonomy))
        code, out, err = run(
            capsys, "symmetry", "--pd", str(pd), "--holonomy", str(hol),
            "--holonomy-reversed", str(hol), "--depth", "0",
        )
        assert (code, out) == (1, "")
        assert err == f"error: InputError: {message}\n"


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
        *([command, "--tol", "1e-6"]
          for command in ("volume", "invariant", "enumerate", "symmetry")),
        *([command, "--base-meridian", "y"]
          for command in ("volume", "invariant", "enumerate")),
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--fixture", "fig8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def readme_table() -> dict[str, set[str]]:
        """The CLI table of README.md: subcommand -> flags besides --json."""
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        rows = text.split("| subcommand | flags besides `--json` |\n|---|---|\n")[1]
        table = {}
        for row in rows.split("\n\n")[0].splitlines():
            name, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
            table[name] = set(re.findall(r"`(--[a-z-]+)", flags))
        return table

    def test_flag_sets_match_the_readme_table(self):
        parser = build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        flags = {
            name: {s for a in p._actions for s in a.option_strings}
            - {"-h", "--help", "--json"}
            for name, p in commands.items()
        }
        assert flags == self.readme_table()


class TestJsonRoundTrip:
    def test_volume_json_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "volume", "--fixture", "fig8")
        _, json_out, _ = run(capsys, "volume", "--fixture", "fig8", "--json")
        doc = json.loads(json_out)
        phi_line = next(l for l in text_out.splitlines() if l.startswith("phi"))
        assert float(phi_line.split("=")[1]) == doc["phi"]


class TestColdStart:
    def test_import_builds_no_fractions(self):
        # a fresh interpreter, since this one has imported more by now
        src = str(Path(volquandle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, volquandle.cli; print('fractions' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "False"
