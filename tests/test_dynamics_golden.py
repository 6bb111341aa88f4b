"""Byte-identity of the numeric lifts, descents and dynamics CLI outputs.

Every library case records the sha256 digest of the ``repr`` of a result:
for ``lift_path`` its samples, final point, error estimate and escape flag;
for ``trace_descent`` its samples and stop reason; for a case that raises,
the error class and message.  The lifts run on segments, arcs, spirals and
polylines for 2-D and 3-D fields (Gaussian-rational spectra, nonlinear
terms, a meromorphic component) plus an escape; the descents include a
``domain_exit`` stop.  CLI cases record the exit code and the digest of
stdout of ``dynamics timeform``, ``dynamics descent`` (JSON and ``--csv``)
and ``dynamics holonomy``.  The adaptive step sequence depends on every bit
of every right-hand-side value and error norm, so a change to the
integrator's arithmetic that moves one rounding fails here.

New cases are pinned with

    PYTHONPATH=src python tests/test_dynamics_golden.py --write

which adds the digests of new case ids, drops those of removed ones, and
refuses (exit 1, nothing written) when a pinned digest would change.  An
intended output change is re-pinned by deleting the affected entries first.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from foliations.algebra import ChartFunction, GaussianRational, Poly
from foliations.cli import main
from foliations.corpus import linear_saddle, strict_siegel_diagonal
from foliations.dynamics import (
    CircularArc,
    LogSpiral,
    Polyline,
    Segment,
    full_circle,
    lift_path,
    separating_direction,
    spiral_path,
    trace_descent,
)
from foliations.errors import FoliationError
from foliations.fields import Chart, VectorField

import golden_pins

DIGESTS = Path(__file__).resolve().parent / "golden" / "dynamics_digests.json"
V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")


def g(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def poly(vars, terms) -> Poly:
    return Poly.make(vars, {e: g(*c) if isinstance(c, tuple) else g(c)
                            for e, c in terms.items()})


def fields() -> dict[str, VectorField]:
    c2, c3 = Chart.root(V2), Chart.root(V3)
    return {
        "saddle3": linear_saddle(3),
        # x(1 + y/2) d/dx + ((-3/2 + i/4) y + x^2 y) d/dy
        "gauss2": VectorField.make(c2, [
            poly(V2, {(1, 0): 1, (1, 1): "1/2"}),
            poly(V2, {(0, 1): ("-3/2", "1/4"), (2, 1): 1})]),
        # x d/dx + (y^2 - 2y)/x d/dy: a pole along x = 0
        "pole2": VectorField.make(c2, [
            poly(V2, {(1, 0): 1}),
            ChartFunction.make(poly(V2, {(0, 2): 1, (0, 1): -2}), (-1, 0))]),
        "siegel3": strict_siegel_diagonal(),
        # spectrum (3/2 - i/2, (3/2 - i/2)(5/4 + i/8), (3/2 - i/2)(-2/3 - i/4))
        # with quadratic terms
        "gauss3": VectorField.make(c3, [
            poly(V3, {(1, 0, 0): ("3/2", "-1/2")}),
            poly(V3, {(0, 1, 0): ("31/16", "-7/16"), (1, 1, 0): ("1/3", 0)}),
            poly(V3, {(0, 0, 1): ("-9/8", "-1/24"), (0, 1, 1): (0, 1)})]),
    }


def paths() -> dict[str, object]:
    v = separating_direction([1, 1 + 1j, -2 - 1j])
    return {
        "segment": Segment(0.1 + 0.05j, -0.08 + 0.12j),
        "circle": full_circle(0.1),
        "arc": CircularArc(0.02j, 0.15, -0.4, 2.6),
        "spiral": spiral_path(0.1, 0.3, v, -3.0),
        "polyline": Polyline((0.1 + 0j, 0.1j, -0.1 + 0j, -0.1j, 0.1 + 0j)),
    }


FIBERS = {2: [0.01 + 0j], 3: [0.01 + 0j, 0.02 - 0.01j]}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def outcome(fn) -> str:
    try:
        return digest(fn())
    except FoliationError as exc:
        return digest((type(exc).__name__, str(exc)))


def lift_digest(*args, **kwargs) -> str:
    def run():
        r = lift_path(*args, **kwargs)
        return (r.samples, r.final, r.est_error, r.escaped)
    return outcome(run)


def descent_digest(*args, **kwargs) -> str:
    def run():
        traj = trace_descent(*args, **kwargs)
        return (traj.samples, traj.stop_reason)
    return outcome(run)


def library_cases() -> dict[str, str]:
    out = {}
    for fname, field in fields().items():
        fiber = FIBERS[field.chart.dim]
        for pname, path in paths().items():
            out[f"lift/{fname}/{pname}"] = lift_digest(field, "x", path, fiber)
    siegel = strict_siegel_diagonal()
    v = separating_direction([1, 1 + 1j, -2 - 1j])
    out["lift/siegel3/spiral256"] = lift_digest(
        siegel, "x", spiral_path(0.1, 0.3, v, -10.0), [0.01, 0.01],
        escape_radius=1e9, min_samples=256)
    out["lift/siegel3/ray"] = lift_digest(
        siegel, "x", LogSpiral(0.1, -1.0, 0.0, 3.0), [0.01, 0.01])
    out["lift/saddle3/base_y"] = lift_digest(
        linear_saddle(3), "y", full_circle(0.1), [0.01], rtol=1e-6, atol=1e-9)
    expanding = VectorField.make(Chart.root(V2), [
        poly(V2, {(1, 0): 1}), poly(V2, {(0, 1): -40})])
    out["lift/escape"] = lift_digest(
        expanding, "x", LogSpiral(0.1, -1.0, 0.0, 4.0), [0.5], escape_radius=2.0)
    out["lift/singular_base"] = lift_digest(
        VectorField.make(Chart.root(V2), [poly(V2, {(0, 1): 1}), poly(V2, {(1, 0): 1})]),
        "x", Segment(0.5, -0.5), [0.0])

    x1 = poly(V1, {(1,): 1})
    one = poly(V1, {(0,): 1})
    descents = {
        "radial": (x1, one, 0.0, 0.4 + 0.3j, 2.0),
        "spiral": (x1, one, math.pi / 4, 0.4 + 0.3j, 1.5),
        "translation": (one, one, 0.0, 0.1 + 0.2j, 1.0),
        "gauss": (poly(V1, {(2,): ("1", "1/2"), (3,): "-1/3"}),
                  poly(V1, {(0,): 1, (1,): (0, -1)}), -0.7, 0.5 - 0.25j, 1.2),
        "cubic": (poly(V1, {(3,): 1}), one, 0.3, 0.6 + 0.1j, 1.0),
        "domain_exit": (one, one, 0.2, 0.1 + 0.2j, 30.0),
        "singular": (one, x1, 0.0, 0.5j, 1.0),
    }
    for name, args in descents.items():
        out[f"descent/{name}"] = descent_digest(*args)
    out["descent/tight"] = descent_digest(x1, poly(V1, {(0,): 1, (1,): "1/4"}),
                                          0.1, 0.3 - 0.4j, 1.0, rtol=1e-10, atol=1e-12)
    return out


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


ONE_VARIABLE = {
    "constant": "1",
    "linear": "x",
    "order2": "x^2",
    "order3": "x^3 - 2*x^4",
    "order5": "1/2*x^5 + i*x^6",
}
TIMEFORM_PATHS = ["half:0.1", "circle:0.5", "arc:0.3:-1.2:2.0", "segment:0.2:0.1:-0.1:0.3"]
DESCENTS = [
    ["--start=0.5,0.5"],
    ["--start=0.4,-0.3", "--theta=0.6", "--t-max=1.5"],
    ["--start=-0.2,0.7", "--theta=-1.1", "--t-max=0.8", "--numerator", "1 + x"],
    ["--start=0.1,0.2", "--theta=0.2", "--t-max=30"],
]
HOLONOMY = {
    # file text, extra flags
    "saddle_5_3": ("vars: x, y\nkind: field\nx, -5/3*y\n",
                   ["--loop-radius", "0.173000", "--fiber-seed", "0.027000"]),
    "saddle_7_2": ("vars: x, y\nkind: field\nx, -7/2*y\n",
                   ["--loop-radius", "0.061000", "--fiber-seed", "0.006000"]),
    "diagonal": ("vars: x, y, z\nkind: field\n(3/2 - 1/2*i)*x, "
                 "(31/16 - 7/16*i)*y, (-9/8 - 1/24*i)*z\n", ["--base", "x"]),
}


def cli_cases(workdir: Path) -> dict[str, dict]:
    out = {}
    for name, expr in ONE_VARIABLE.items():
        path = workdir / f"{name}.field"
        path.write_text(f"vars: x\nkind: field\n{expr}\n")
        for k, spec in enumerate(TIMEFORM_PATHS):
            out[f"cli/{name}/timeform{k}"] = run(
                ["dynamics", "timeform", str(path), f"--path={spec}"])
        for k, flags in enumerate(DESCENTS):
            argv = ["dynamics", "descent", str(path)] + flags
            out[f"cli/{name}/descent{k}"] = run(argv)
            out[f"cli/{name}/descent{k}/csv"] = run(argv + ["--csv"])
    for name, (text, flags) in HOLONOMY.items():
        path = workdir / f"{name}.field"
        path.write_text(text)
        out[f"cli/{name}/holonomy"] = run(["dynamics", "holonomy", str(path)] + flags)
    return out


def compute(workdir: Path) -> dict:
    return {**library_cases(), **cli_cases(workdir)}


def test_dynamics_output_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = compute(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} dynamics outputs changed: {changed[:10]}"


def compute_in_tempdir() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return compute(Path(tmp))


if __name__ == "__main__":
    golden_pins.main(DIGESTS, compute_in_tempdir)
