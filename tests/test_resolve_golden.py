"""Byte-identity of the resolution trees.

Every case resolves one germ and records the sha256 digest of
``emit_tree(tree) + emit_tree(tree, "dot")``; a case whose resolution raises
records ``"ErrorClass: message"`` instead.  The committed digests pin
statuses, diagnostics, weights, point order and labels on the fixtures,
seeded random planar and 3-D germs and the budget edge cases, so a change
to ``seidenberg_resolve`` or ``resolve3`` that alters one byte of their
output fails here.

New cases are pinned with

    PYTHONPATH=src python tests/test_resolve_golden.py --write

which adds the digests of new case ids, drops those of removed ones, and
refuses (exit 1, nothing written) when a pinned digest would change.  An
intended output change is re-pinned by deleting the affected entries first.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from foliations.algebra import Poly, gr
from foliations.corpus import cusp_hamiltonian, fixtures_dir
from foliations.errors import FoliationError
from foliations.expressions import parse_field
from foliations.fields import Chart, VectorField
from foliations.resolve import emit_tree, resolve3, seidenberg_resolve

import golden_pins

DIGESTS = Path(__file__).resolve().parent / "golden" / "resolve_digests.json"
V2 = ("x", "y")
V3 = ("x", "y", "z")


def _field(vars, components) -> VectorField:
    return VectorField.make(Chart.root(vars), [
        Poly(vars, {e: gr(c) for e, c in terms.items()}) for terms in components])


def _planar_germs(count: int):
    """The seeded generator of acceptance criterion 05, resampling only the
    zero field; fields with non-rational points are kept."""
    rng = random.Random(555000111)
    out = []
    while len(out) < count:
        pair = []
        min_deg = rng.choice([1, 1, 2, 2, 3])
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(min_deg, 3)
                a = rng.randint(0, d)
                terms[(a, d - a)] = rng.choice([-3, -2, -1, 1, 2, 3])
            pair.append(terms)
        if any(pair):
            out.append(_field(V2, pair))
    return out


def _germs3(count: int):
    rng = random.Random(31337)
    out = []
    for _ in range(count):
        comps = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0, 0, 0]
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(3)] += 1
                terms[tuple(exps)] = rng.choice([-2, -1, 1, 2])
            comps.append(terms)
        out.append(_field(V3, comps))
    return out


# (alpha, beta, lambda) from the parameter lists of the benchmark's probe items
_SANCHO_SANZ = [(gr(1), gr(1), gr("1/2")), (gr(2), gr(3), gr(1)),
                (gr("1/2"), gr("1/3"), gr(2)), (gr("3/2"), gr(-2), gr(-1)),
                (gr("1/3"), gr("1/2"), gr("1/3")), (gr(1, 1), gr(1), gr(1))]


def _sancho_sanz(alpha, beta, lam) -> VectorField:
    """x(x d/dx - alpha y d/dy - beta z d/dz) + xz d/dy + (y - lambda x) d/dz."""
    return _field(V3, [{(2, 0, 0): 1}, {(1, 0, 1): 1, (1, 1, 0): -alpha},
                       {(0, 1, 0): 1, (1, 0, 1): -beta, (1, 0, 0): -lam}])


def cases():
    """(case id, zero-argument callable returning a tree) in a fixed order."""
    out = []
    for path in sorted(fixtures_dir().glob("*.field")):
        x = parse_field(path.read_text())
        if not isinstance(x, VectorField):
            continue
        for steps in (1, 2, 40):
            out.append((f"{path.stem}/2d/{steps}",
                        lambda x=x, s=steps: seidenberg_resolve(x, max_steps=s)))
        for steps in (0, 3, 12):
            for weighted in (True, False):
                out.append((f"{path.stem}/3d/{steps}/{'w' if weighted else 's'}",
                            lambda x=x, s=steps, w=weighted:
                            resolve3(x, max_steps=s, allow_weighted=w)))
    # stops at a pending nilpotent point: 2-D adds no nilpotent diagnostics
    out.append(("cusp2/2d/2", lambda: seidenberg_resolve(cusp_hamiltonian(2), max_steps=2)))
    # (y^2 - 2x^2)^2 (x d/dx + 2y d/dy): non-rational points on the divisor
    square = Poly(V2, {(0, 2): gr(1), (2, 0): gr(-2)})
    square = square * square
    factor = [Poly(V2, {(1, 0): gr(1)}), Poly(V2, {(0, 1): gr(2)})]
    nonrational2 = VectorField.make(Chart.root(V2), [square * f for f in factor])
    out.append(("nonrational/2d/40", lambda: seidenberg_resolve(nonrational2)))
    # x^2 - 2xyz, 2xy^2, x^2 - z^2 - 2x^2 z: a non-rational gap in 3-D
    gap3 = _field(V3, [{(2, 0, 0): 1, (1, 1, 1): -2}, {(1, 2, 0): 2},
                       {(2, 0, 0): 1, (0, 0, 2): -1, (2, 0, 1): -2}])
    out.append(("nonrational/3d/3", lambda: resolve3(gap3, max_steps=3, probe_budget=2)))
    # x^3, 2x + z, -y^2: the probe matches after one point blow-up (chart x,
    # point (0, 0, -2)), so the escape follows a pre-chain
    prechain = _field(V3, [{(3, 0, 0): 1}, {(1, 0, 0): 2, (0, 0, 1): 1}, {(0, 2, 0): -1}])
    for steps in (3, 12):
        out.append((f"prechain/3d/{steps}",
                    lambda s=steps: resolve3(prechain, max_steps=s)))
    for k, x in enumerate(_planar_germs(100)):
        out.append((f"planar/{k:03d}", lambda x=x: seidenberg_resolve(x, max_steps=40)))
    for k, x in enumerate(_germs3(30)):
        out.append((f"germ3/{k:02d}",
                    lambda x=x: resolve3(x, max_steps=3, probe_budget=2)))
    # the persistent-nilpotent probe at its default budget: later probes of
    # one resolution revisit blow-ups that earlier probes already made
    for k, x in enumerate(_germs3(30)):
        out.append((f"germ3/{k:02d}/probe6", lambda x=x: resolve3(x, max_steps=3)))
    for a, b, lam in _SANCHO_SANZ:
        x = _sancho_sanz(a, b, lam)
        for steps in (4, 6):
            out.append((f"sancho_sanz({a.text()},{b.text()},{lam.text()})/3d/{steps}",
                        lambda x=x, s=steps: resolve3(x, max_steps=s)))
    return out


def fingerprint(make_tree) -> str:
    try:
        tree = make_tree()
    except FoliationError as exc:
        return f"{type(exc).__name__}: {exc}"
    text = emit_tree(tree) + emit_tree(tree, "dot")
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    return {name: fingerprint(make) for name, make in cases()}


def test_resolution_output_byte_identical():
    expected = json.loads(DIGESTS.read_text())
    actual = compute()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} resolution outputs changed: {changed[:10]}"


if __name__ == "__main__":
    golden_pins.main(DIGESTS, compute)
