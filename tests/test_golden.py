"""CLI outputs pinned against files in tests/golden/.

Every key must match exactly, except `max_residual`, a rounding error
that only has to stay below MAX_RESIDUAL. Text outputs must match byte
for byte. A change that means to move an answer rewrites the file with
the CLI command of its case and explains the difference:

    PYTHONPATH=src python tests/test_golden.py NAME...

writes each named file from the argv of its case.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from volquandle.cli import main
from volquandle.fixtures import FIG8_PD_R2

GOLDEN = Path(__file__).parent / "golden"
MAX_RESIDUAL = 1e-12

CASES = {
    **{
        f"symmetry-fig8-d{d}.{ext}": ["symmetry", "--fixture", "fig8",
                                      "--depth", str(d), *flag]
        for d in (1, 2, 3)
        for ext, flag in (("json", ["--json"]), ("txt", []))
    },
    "enumerate-fig8-d2.json": ["enumerate", "--fixture", "fig8", "--depth", "2",
                               "--json"],
    "enumerate-fig8-d2.txt": ["enumerate", "--fixture", "fig8", "--depth", "2"],
    **{
        f"volume-fig8.{ext}": ["volume", "--fixture", "fig8", *flag]
        for ext, flag in (("json", ["--json"]), ("txt", []))
    },
    # the coloring is the depth-2 negatively_amphicheiral witness of
    # symmetry-fig8-d2.json, replayed as {"arcs": witness}
    **{
        f"invariant-fig8-d2-negative.{ext}": ["invariant", "--fixture", "fig8",
                                              "--coloring", "{witness}", *flag]
        for ext, flag in (("json", ["--json"]), ("txt", []))
    },
    **{
        f"dilog-half-half.{ext}": ["dilog", "0.5", "0.5", *flag]
        for ext, flag in (("json", ["--json"]), ("txt", []))
    },
    **{
        f"symmetry-fig8-r2-d{d}.json": ["symmetry", "--fixture", "fig8",
                                        "--pd", "{r2}", "--depth", str(d), "--json"]
        for d in (1, 2)
    },
}


def assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            if key == "max_residual":
                assert 0.0 <= got[key] < MAX_RESIDUAL, f"{path}.{key}"
            else:
                assert_matches(got[key], want[key], f"{path}.{key}")
    else:
        assert got == want, path


def case_argv(name, tmp_path):
    """The argv of a case, its {r2} and {witness} files written to tmp_path."""
    r2 = tmp_path / "fig8_r2.pd"
    r2.write_text(FIG8_PD_R2)
    symmetry = json.loads((GOLDEN / "symmetry-fig8-d2.json").read_text())
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(
        {"arcs": symmetry["witnesses"]["negatively_amphicheiral"]}
    ))
    return [arg.format(r2=r2, witness=witness) for arg in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, tmp_path, name):
    assert main(case_argv(name, tmp_path)) == 0
    out = capsys.readouterr().out
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        assert_matches(json.loads(out), json.loads(want))
    else:
        assert out == want


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name not in CASES:
            sys.exit(f"no golden case {name!r}")
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            code = main(case_argv(name, Path(tmp)))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out.getvalue())
