"""Byte-identity of the formal first-integral spaces.

Every case solves one truncated jet problem and records the sha256 digest of
``json.dumps(formal_first_integral(x, n).to_json())``; a case whose solve
raises records ``"ErrorClass: message"`` instead.  The committed digests pin
``dims_by_degree``, the canonical reduced-echelon basis and its rendering on
every vector-field fixture, the slow catalog fields at order 8 and seeded
random planar and 3-D germs, some at orders 7-12 where the basis
coefficients grow to hundreds of digits, so a change to
``formal_first_integral`` that alters one byte of its output fails here.

New cases are pinned with

    PYTHONPATH=src python tests/test_integrals_golden.py --write

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
from foliations.corpus import fixtures_dir, jouanolou_field, saddle_node_family
from foliations.errors import FoliationError
from foliations.expressions import parse_field
from foliations.fields import Chart, VectorField
from foliations.integrals import formal_first_integral

import golden_pins

DIGESTS = Path(__file__).resolve().parent / "golden" / "jet_digests.json"
V2 = ("x", "y")
V3 = ("x", "y", "z")
COEFFS = [gr(-3), gr(-2), gr(-1), gr(1), gr(2), gr(3), gr("1/2"), gr("-2/3"), gr(1, 1)]
# coprime denominators and non-real values: at orders 7-12 the basis
# coefficients grow to hundreds of digits, where an elimination that lets
# its integer rows grow beyond the reduced values stops finishing
GROWTH_COEFFS = [gr("3/7"), gr("7/11"), gr("-1/3", "5/2"), gr(2, 1), gr(0, -4)]


def _germs(vars, count: int, seed: int, coeffs=COEFFS):
    """Components with 1-3 terms of degree 1..3 each; some coefficients are
    non-real, so the Gaussian part of the arithmetic is pinned too."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        comps = []
        for _ in vars:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0] * len(vars)
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(len(vars))] += 1
                terms[tuple(exps)] = rng.choice(coeffs)
            comps.append(Poly.make(vars, terms))
        out.append(VectorField.make(Chart.root(vars), comps))
    return out


def cases():
    """(case id, field, jet order) in a fixed order."""
    out = []
    for path in sorted(fixtures_dir().glob("*.field")):
        x = parse_field(path.read_text())
        if not isinstance(x, VectorField):
            continue
        for n in range(2, 7):
            out.append((f"{path.stem}/{n}", x, n))
    out.append(("saddle_node_family(1,1,1)/8", saddle_node_family(1, 1, 1), 8))
    out.append(("jouanolou_field(2)/8", jouanolou_field(2), 8))
    for k, x in enumerate(_germs(V2, 15, 2024)):
        out.append((f"germ2/{k:02d}/6", x, 6))
    for k, x in enumerate(_germs(V3, 15, 2025)):
        out.append((f"germ3/{k:02d}/4", x, 4))
    for k, x in enumerate(_germs(V3, 10, 2026, GROWTH_COEFFS)):
        n = 7 + k % 2
        out.append((f"growth3/{k:02d}/{n}", x, n))
    for k, x in enumerate(_germs(V2, 5, 2027, GROWTH_COEFFS)):
        out.append((f"growth2/{k:02d}/12", x, 12))
    return out


def fingerprint(x: VectorField, n: int) -> str:
    try:
        space = formal_first_integral(x, n)
    except FoliationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps(space.to_json()).encode()).hexdigest()


def compute() -> dict[str, str]:
    return {name: fingerprint(x, n) for name, x, n in cases()}


def test_formal_integral_output_byte_identical():
    expected = json.loads(DIGESTS.read_text())
    actual = compute()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} formal-integral outputs changed: {changed[:10]}"


if __name__ == "__main__":
    golden_pins.main(DIGESTS, compute)
