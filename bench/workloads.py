"""Seeded inputs and semantic output checks for the three workloads.

Every item is one CLI call, ``foliations <argv>``, on a ``.field`` file the
benchmark writes.  Inputs come only from the seed.  Checks recompute the
answer independently (``reference``) instead of comparing bytes, so later
changes may alter the text of outputs but not their meaning.

Items are generated in a fixed repeating pattern of kinds, so every run
sees the same mix however many items fit in its time.  No item is ever
dropped or resampled.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref
from reference import gauss

V2 = ("x", "y")
V3 = ("x", "y", "z")

EXIT_OK = 0
EXIT_NEGATIVE = 1


@dataclass
class Item:
    """One CLI call: ``argv`` holds ``FILE`` where the input path goes."""

    name: str
    kind: str
    text: str
    argv: list
    expect: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _random_germ(rng: random.Random, names, nterms: int, low: int, high: int,
                 coeffs) -> list[dict]:
    """Components with ``nterms`` random terms of degree low..high each."""
    comps = []
    for _ in names:
        poly: dict = {}
        for _ in range(nterms):
            d = rng.randint(low, high)
            exps = [0] * len(names)
            for _ in range(d):
                exps[rng.randrange(len(names))] += 1
            poly[tuple(exps)] = gauss(rng.choice(coeffs))
        comps.append(poly)
    return comps


def _poly(terms: dict) -> dict:
    return {e: c if isinstance(c, tuple) else gauss(c) for e, c in terms.items()}


# ---------------------------------------------------------------------------
# jets: integrals FILE --formal --jet-degree N
# ---------------------------------------------------------------------------

JET_COEFFS = ["-3", "-2", "-1", "1", "2", "3", "1/2", "-1/2", "2/3"]
SNF_PARAMS = ["1", "2", "-1", "1/2", "-1/2", "1/3", "2/3", "3/2", "-2/3"]


def saddle_node_family(a, b, c) -> list[dict]:
    """x^2 d/dx + (1+ax)(y d/dy - z d/dz) + bxz d/dy + cxy d/dz."""
    return [
        _poly({(2, 0, 0): 1}),
        _poly({(0, 1, 0): 1, (1, 1, 0): a, (1, 0, 1): b}),
        _poly({(0, 0, 1): -1, (1, 0, 1): -a, (1, 1, 0): c}),
    ]


JET_CATALOG = [
    ("saddle_node_family(1,1,1)", saddle_node_family(1, 1, 1)),
    ("two_integrals", [_poly({(1, 1, 0): 2}), _poly({(3, 0, 0): 1, (0, 2, 0): 2}),
                       _poly({(0, 1, 1): -2})]),
    ("jouanolou2", [_poly({(0, 2, 0): 1}), _poly({(0, 0, 2): 1}),
                    _poly({(2, 0, 0): 1})]),
]

# jet degree per kind: each item takes 0.1-0.6 s, so a run holds ~100 items
JET_DEGREE = {"catalog": 5, "family": 5, "germ2": 6, "germ3": 4}
# Item costs form two clusters: two of the catalog fields and about half of
# the germs are cheap, the rest are about twice as dear.  With family members
# in two slots of five the median falls inside the dear cluster, not in the
# gap between the two, where it would move with each seed's share of cheap
# germs.
JET_PATTERN = ["catalog", "family", "germ2", "family", "germ3"]


def jets_items(seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in range(count):
        kind = JET_PATTERN[k % len(JET_PATTERN)]
        if kind == "catalog":
            label, comps = JET_CATALOG[(k // len(JET_PATTERN)) % len(JET_CATALOG)]
            names = V3
        elif kind == "family":
            a, b, c = (Fraction(rng.choice(SNF_PARAMS)) for _ in range(3))
            label, comps, names = f"saddle_node_family({a},{b},{c})", \
                saddle_node_family(a, b, c), V3
        elif kind == "germ2":
            names = V2
            comps = _random_germ(rng, names, 3, 1, 3, JET_COEFFS)
            label = "random planar germ"
        else:
            names = V3
            comps = _random_germ(rng, names, 3, 1, 3, JET_COEFFS)
            label = "random 3-D germ"
        n = JET_DEGREE[kind]
        items.append(Item(
            name=f"jets/{k:05d}-{kind}", kind=kind,
            text=ref.field_file(names, comps, label),
            argv=["integrals", "FILE", "--formal", "--jet-degree", str(n)],
            expect={"names": names, "comps": comps, "n": n}))
    return items


def check_jets(item: Item, code: int, out: str, err: str) -> dict:
    names, comps, n = item.expect["names"], item.expect["comps"], item.expect["n"]
    dims = item.expect.get("dims")
    if dims is None:
        dims = ref.jet_dims(comps, len(names), n)
    require(code == (EXIT_NEGATIVE if dims[-1] == 0 else EXIT_OK),
            f"exit code {code} for final dimension {dims[-1]}")
    formal = json.loads(out)["formal"]
    require(formal["degree"] == n, "wrong jet degree")
    require(formal["dims_by_degree"] == dims,
            f"dims_by_degree {formal['dims_by_degree']} != reference {dims}")
    basis = [ref.parse_poly(text, names) for text in formal["basis"]]
    require(formal["dimension"] == len(basis) == dims[-1], "basis size")
    for poly in basis:
        require(bool(poly), "zero basis element")
        require(all(1 <= sum(e) <= n for e in poly), "basis degree out of 1..n")
        require(not ref.residual(comps, poly, n), "nonzero residual jet(X.f, n)")
    require(ref.independent(basis, len(names), n), "basis is linearly dependent")
    return {}


# ---------------------------------------------------------------------------
# resolve: resolve FILE [...]
# ---------------------------------------------------------------------------

# each cycle: 15 planar germs, then one item of each 3-D kind; the probe
# items (~5% of items, ~0.6 s each) set the p98 tail
PLANAR_PER_CYCLE = 15
RESOLVE_3D = ["probe", "escape", "random3", "standard", "random3_standard"]
SS_ALPHA = [gauss(1), gauss(2), gauss("1/2"), gauss("3/2"), gauss("1/3"), gauss(1, 1)]
SS_BETA = [gauss(1), gauss(3), gauss("1/3"), gauss(-2), gauss("1/2")]
SS_LAMBDA = [gauss("1/2"), gauss(1), gauss(2), gauss(-1), gauss("1/3")]
FINAL_OK_3D = {"elementary", "regular", "escaped_weighted"}


# minimum degree of planar germ k: the proportions that acceptance criterion
# 05 draws at random, taken in turn so that every seed has the same mix
PLANAR_MIN_DEG = [1, 2, 1, 3, 2]


def planar_germ(rng: random.Random, min_deg: int) -> list[dict]:
    """The seeded planar generator of acceptance criterion 05, for a given
    minimum degree."""
    comps = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(min_deg, 3)
            a = rng.randint(0, d)
            terms[(a, d - a)] = rng.choice([-3, -2, -1, 1, 2, 3])
        comps.append(_poly(terms))
    return comps


def sancho_sanz(alpha, beta, lam) -> list[dict]:
    """x(x d/dx - a y d/dy - b z d/dz) + xz d/dy + (y - l x) d/dz."""
    comps = [_poly({(2, 0, 0): 1}),
             {(1, 0, 1): gauss(1), (1, 1, 0): ref.gneg(alpha)},
             {(0, 1, 0): gauss(1), (1, 0, 1): ref.gneg(beta)}]
    if lam != ref.ZERO:
        comps[2][(1, 0, 0)] = ref.gneg(lam)
    return comps


def resolve_items(seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    cycle = PLANAR_PER_CYCLE + len(RESOLVE_3D)
    items = []
    for k in range(count):
        slot = k % cycle
        if slot < PLANAR_PER_CYCLE:
            comps = planar_germ(rng, PLANAR_MIN_DEG[k % len(PLANAR_MIN_DEG)])
            items.append(Item(
                f"resolve/{k:05d}-planar", "planar",
                ref.field_file(V2, comps, "criterion-05 planar germ"),
                ["resolve", "FILE"], {"max_steps": 40}))
            continue
        kind = RESOLVE_3D[slot - PLANAR_PER_CYCLE]
        alpha, beta, lam = (rng.choice(SS_ALPHA), rng.choice(SS_BETA),
                            rng.choice(SS_LAMBDA))
        if kind == "probe":
            comps, argv, steps = sancho_sanz(alpha, beta, lam), ["--max-steps", "4"], 4
        elif kind == "escape":
            comps, argv, steps = sancho_sanz(alpha, beta, ref.ZERO), [], 40
        elif kind == "standard":
            comps, argv, steps = (sancho_sanz(alpha, beta, lam),
                                  ["--standard-only", "--max-steps", "4"], 4)
        else:
            comps = _random_germ(rng, V3, rng.randint(1, 3), 1, 3, [-2, -1, 1, 2])
            argv, steps = ["--max-steps", "3", "--probe-budget", "2"], 3
            if kind == "random3_standard":
                argv = ["--standard-only", "--max-steps", "3"]
        items.append(Item(
            f"resolve/{k:05d}-{kind}", kind,
            ref.field_file(V3, comps, f"{kind} 3-D germ"),
            ["resolve", "FILE"] + argv, {"max_steps": steps}))
    return items


def _final_points(tree):
    for node in tree["nodes"]:
        for p in node["singular_points"]:
            if p["status"] != "blown_up":
                yield node, p


def _component_index_sum(label: str, final):
    """Sum of Camacho-Sad indices along ``label``, or None if not checkable.

    Each index is recomputed from the chart's field as a residue; where the
    output also gives an eigenvalue ratio for the component, it must agree.
    A component through a non-rational (interval) point is not checkable:
    the residue at an irrational root is not computed here.
    """
    total = ref.ZERO
    for node, p in final:
        if label not in p["on_components"]:
            continue
        if not p["exact"]:
            return None
        names = node["vars"]
        comps = [ref.parse_poly(c, names) for c in ref.split_components(node["field"])]
        point = [ref.parse_gauss(c) for c in p["coords"]]
        index = ref.camacho_sad_index(comps, node["divisor_labels"].index(label), point)
        if index is None:
            return None
        given = p["eigenvalue_ratios"].get(label)
        require(given is None or ref.parse_gauss(given) == index,
                f"{label}: ratio {given} at {p['coords']} != residue {index}")
        total = ref.gadd(total, index)
    return total


def _check_planar(tree, code: int, max_steps: int) -> None:
    final = list(_final_points(tree))
    if tree["status"] != "resolved":
        require(code == EXIT_NEGATIVE, f"exit code {code} for an unresolved tree")
        stuck = any(p["status"] == "unprocessed_nonrational" for _, p in final)
        require(stuck or tree["steps"] >= max_steps,
                "unresolved without a non-rational point or an exhausted budget")
        return
    require(code == EXIT_OK, f"exit code {code} for a resolved tree")
    require(tree["steps"] <= max_steps, "more steps than the budget")
    for _, p in final:
        require(p["status"] in ("elementary", "regular"),
                f"final point with status {p['status']}")
        if p["report"] is not None:
            require(p["report"]["class"] in
                    ("elementary_nondegenerate", "saddle_node", "regular"),
                    f"final point of class {p['report']['class']}")
    # Camacho-Sad: along a non-dicritical component the indices of its points
    # sum to its self-intersection, the component's weight
    dicritical = {n["divisor_label"] for n in tree["nodes"] if n["dicritical"]}
    for comp in tree["components"]:
        if comp["id"] in dicritical:
            continue
        total = _component_index_sum(comp["id"], final)
        require(total is None or total == ref.gauss(comp["weight"]),
                f"{comp['id']}: indices sum to {total}, weight {comp['weight']}")


def _check_3d(tree, code: int, kind: str, max_steps: int) -> None:
    status = tree["status"]
    points = [p for _, p in _final_points(tree)]
    if status == "resolved":
        require(code == EXIT_OK, f"exit code {code} for a resolved tree")
        for p in points:
            require(p["status"] in FINAL_OK_3D, f"final point with status {p['status']}")
    else:
        require(status in ("budget_exhausted", "persistent_nilpotent_pending"),
                f"status {status}")
        require(code == EXIT_NEGATIVE, f"exit code {code} for status {status}")
        used = tree["steps"] + tree["weighted_steps"]
        require(used >= max_steps or any(
            "stuck" in d or "gaps" in d for d in tree["diagnostics"]),
            "budget outcome with budget left and no reason given")
    if kind == "escape":
        # Sancho-Sanz with lambda = 0: one weight-2 escape resolves it
        require(status == "resolved" and tree["weighted_steps"] == 1,
                "persistent nilpotent germ not resolved by one weight-2 escape")
    if kind in ("standard", "random3_standard"):
        require(tree["weighted_steps"] == 0, "weighted step with --standard-only")


def check_resolve(item: Item, code: int, out: str, err: str) -> dict:
    tree = json.loads(out)
    max_steps = item.expect["max_steps"]
    if item.kind == "planar":
        require(tree["dimension"] == 2, "dimension")
        _check_planar(tree, code, max_steps)
    else:
        require(tree["dimension"] == 3, "dimension")
        _check_3d(tree, code, item.kind, max_steps)
    return {"blowups": tree["steps"] + tree["weighted_steps"]}


# ---------------------------------------------------------------------------
# dynamics: dynamics holonomy|timeform|semicomplete|descent FILE ...
# ---------------------------------------------------------------------------

DYN_PATTERN = ["saddle", "timeform", "diagonal", "semicomplete", "descent"]
HOLONOMY_TOL = 1e-5
QUADRATURE_TOL = 1e-6


def _power_field(k: int) -> str:
    return f"# x^{k}\nvars: x\nkind: field\nx^{k}\n"


def _num(x: float) -> str:
    return f"{x:.6f}"


def dynamics_items(seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in range(count):
        kind = DYN_PATTERN[k % len(DYN_PATTERN)]
        name = f"dynamics/{k:05d}-{kind}"
        if kind == "saddle":
            p = rng.randint(2, 7)
            q = rng.randint(1, p - 1)   # q < p: at most one fiber turn per loop
            radius, seed_ = rng.uniform(0.05, 0.3), rng.uniform(0.005, 0.05)
            comps = [_poly({(1, 0): 1}), {(0, 1): gauss(Fraction(-p, q))}]
            items.append(Item(name, kind, ref.field_file(V2, comps, "linear saddle"),
                              ["dynamics", "holonomy", "FILE", "--loop-radius",
                               _num(radius), "--fiber-seed", _num(seed_)],
                              {"ratio": cmath.exp(-2j * math.pi * q / p)}))
        elif kind == "diagonal":
            # spectrum (l, l*m2, l*m3) with |Im m| small so lifts stay bounded
            lam = gauss(rng.choice([1, 2, -1, Fraction(1, 2), Fraction(3, 2)]),
                        rng.choice([0, 1, -1, Fraction(1, 2)]))
            mus = [gauss(rng.choice([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2),
                                     Fraction(-1, 3), Fraction(5, 4)]),
                         rng.choice([0, Fraction(1, 8), Fraction(-1, 4), Fraction(1, 3)]))
                   for _ in range(2)]
            comps = [{(1, 0, 0): lam}, {(0, 1, 0): ref.gmul(lam, mus[0])},
                     {(0, 0, 1): ref.gmul(lam, mus[1])}]
            items.append(Item(name, kind, ref.field_file(V3, comps, "diagonal field"),
                              ["dynamics", "holonomy", "FILE", "--base", "x"],
                              {"ratio": cmath.exp(2j * math.pi * ref.to_complex(mus[0]))}))
        elif kind == "timeform":
            power = rng.randint(1, 5)
            radius = rng.uniform(0.2, 1.0)
            a0 = rng.uniform(-math.pi, math.pi)
            a1 = a0 + rng.uniform(0.3, 3.0)
            items.append(Item(name, kind, _power_field(power),
                              ["dynamics", "timeform", "FILE",
                               f"--path=arc:{_num(radius)}:{_num(a0)}:{_num(a1)}"],
                              {"k": power, "arc": (float(_num(radius)),
                                                   float(_num(a0)), float(_num(a1)))}))
        elif kind == "semicomplete":
            power = rng.randint(1, 5)
            radius = rng.uniform(0.05, 0.5)
            items.append(Item(name, kind, _power_field(power),
                              ["dynamics", "semicomplete", "FILE",
                               "--loop-radius", _num(radius)],
                              {"k": power, "radius": float(_num(radius))}))
        else:
            power = rng.randint(1, 3)
            r, phi = rng.uniform(0.3, 0.8), rng.uniform(-math.pi, math.pi)
            theta, t_max = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
            start = complex(float(_num(r * math.cos(phi))), float(_num(r * math.sin(phi))))
            items.append(Item(name, kind, _power_field(power),
                              ["dynamics", "descent", "FILE",
                               f"--start={start.real:.6f},{start.imag:.6f}",
                               f"--theta={_num(theta)}", f"--t-max={_num(t_max)}"],
                              {"k": power, "start": start, "theta": float(_num(theta)),
                               "t_max": float(_num(t_max))}))
    return items


def _close(value: complex, expected: complex, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def check_dynamics(item: Item, code: int, out: str, err: str) -> dict:
    data = json.loads(out)
    e = item.expect
    if item.kind in ("saddle", "diagonal"):
        require(code == EXIT_OK, f"exit code {code}")
        ratio = complex(*data["ratio"])
        require(_close(ratio, e["ratio"], HOLONOMY_TOL),
                f"holonomy ratio {ratio} != closed form {e['ratio']}")
    elif item.kind == "timeform":
        require(code == EXIT_OK, f"exit code {code}")
        k, (radius, a0, a1) = e["k"], e["arc"]
        if k == 1:
            expected = 1j * (a1 - a0)
        else:
            za, zb = cmath.rect(radius, a0), cmath.rect(radius, a1)
            expected = ref.time_form_primitive(k, zb) - ref.time_form_primitive(k, za)
        value = complex(*data["integral"])
        require(_close(value, expected, QUADRATURE_TOL),
                f"time-form integral {value} != closed form {expected}")
    elif item.kind == "semicomplete":
        k = e["k"]
        verdict = "semicomplete" if k <= 2 else "not_semicomplete"
        require(data["verdict"] == verdict and data["order"] == k,
                f"verdict {data['verdict']} order {data['order']} for x^{k}")
        require(code == (EXIT_OK if k <= 2 else EXIT_NEGATIVE), f"exit code {code}")
        if k >= 3:
            # the closed-form integral over the arc of angle 2 pi/(k-1) is 0
            scale = e["radius"] ** (1 - k) / (k - 1)
            value = complex(*data["evidence_integral"])
            require(abs(value) <= QUADRATURE_TOL * scale,
                    f"evidence integral {value} is not ~0")
    else:
        require(code == EXIT_OK, f"exit code {code}")
        k, z0, phase = e["k"], e["start"], cmath.exp(1j * e["theta"])
        samples = data["samples"]
        require(len(samples) >= 2, "too few samples")
        require(data["stop_reason"] in ("t_max", "domain_exit"), "stop reason")
        if data["stop_reason"] == "t_max":
            require(abs(samples[-1][0] - e["t_max"]) <= 1e-9, "did not reach t_max")
        for t, re, im in samples:
            z = complex(re, im)
            if k == 1:
                expected = z0 * cmath.exp(phase * t)
                ok = _close(z, expected, QUADRATURE_TOL)
            else:
                lhs = ref.time_form_primitive(k, z) - ref.time_form_primitive(k, z0)
                ok = _close(lhs, phase * t, QUADRATURE_TOL * max(1.0, abs(
                    ref.time_form_primitive(k, z))))
            require(ok, f"sample t={t} off the closed-form trajectory")
    return {}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    generate: object
    check: object
    pool: int           # items generated; runs longer than the pool wrap around
    tail_pct: float     # fixed tail percentile, >= 10 items beyond at baseline
    trace_rate: float   # traced items per second of --seconds (fixed work)


WORKLOADS = {w.name: w for w in (
    Workload("jets", jets_items, check_jets, pool=300, tail_pct=85.0, trace_rate=3.0),
    Workload("resolve", resolve_items, check_resolve, pool=1600, tail_pct=98.0,
             trace_rate=15.0),
    Workload("dynamics", dynamics_items, check_dynamics, pool=2000, tail_pct=98.0,
             trace_rate=27.0),
)}
