"""Byte-identity of the command-line outputs.

Every case runs one ``foliations`` command in-process and records the exit
code and the sha256 digest of its standard output.  The committed digests
pin ``parse``, ``classify``, ``blowup`` (all charts of the point blow-up),
``integrals --formal --jet-degree 4`` and ``dynamics holonomy`` on every
fixture, the blow-up along the ``z`` axis (all charts, chart 1, and weights
2, 1) on every three-dimensional fixture, ``dynamics semicomplete`` on a few
one-variable fields and the whole ``corpus`` report, so a change that alters
one byte a user sees fails here.

New cases are pinned with

    PYTHONPATH=src python tests/test_cli_golden.py --write

which adds the digests of new case ids, drops those of removed ones, and
refuses (exit 1, nothing written) when a pinned digest would change.  An
intended output change is re-pinned by deleting the affected entries first.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from foliations.cli import main
from foliations.corpus import fixtures_dir
from foliations.expressions import parse_field

import golden_pins

DIGESTS = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
FIXTURE_COMMANDS = {
    "parse": ["parse"],
    "classify": ["classify"],
    "blowup": ["blowup"],
    "formal4": ["integrals", "--formal", "--jet-degree", "4"],
    "holonomy": ["dynamics", "holonomy"],
}
# curve centres exist only in dimension 3; fixtures whose z axis is not
# invariant pin the exit code of the refusal
FIXTURE_COMMANDS_3D = {
    "blowup_curve_z": ["blowup", "--center", "curve:z"],
    "blowup_curve_z_chart1": ["blowup", "--center", "curve:z", "--chart", "1"],
    "blowup_curve_z_w21": ["blowup", "--center", "curve:z", "--weights", "2,1"],
}
# one-variable fields for the semicompleteness rules: orders 2, 3 and 5 (the
# last with a non-real coefficient), order 2 with a nonzero residue, one
# that does not vanish at 0, and orders 2 and 3 whose evidence circle or arc
# of the default radius runs through their other zero, -1/10
ONE_VARIABLE = {
    "order2": "x^2",
    "order3": "x^3 - 2*x^4",
    "order5": "1/2*x^5 + i*x^6",
    "nonvanishing": "1 + x",
    "order2_residue": "x^2 + x^3",
    "order2_residue_zero_on_circle": "x^2 + 10*x^3",
    "order3_zero_on_arc": "x^3 + 10*x^4",
}


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def compute(workdir: Path) -> dict[str, dict]:
    out = {}
    for path in sorted(fixtures_dir().glob("*.field")):
        commands = dict(FIXTURE_COMMANDS)
        if parse_field(path.read_text()).chart.dim == 3:
            commands.update(FIXTURE_COMMANDS_3D)
        for name, command in commands.items():
            out[f"{path.stem}/{name}"] = run(command + [str(path)])
    for name, expr in ONE_VARIABLE.items():
        path = workdir / f"{name}.field"
        path.write_text(f"vars: x\nkind: field\n{expr}\n")
        out[f"{name}/semicomplete"] = run(["dynamics", "semicomplete", str(path)])
    out["corpus"] = run(["corpus"])
    return out


def test_cli_output_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = compute(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} CLI outputs changed: {changed[:10]}"


def compute_in_tempdir() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return compute(Path(tmp))


if __name__ == "__main__":
    golden_pins.main(DIGESTS, compute_in_tempdir)
