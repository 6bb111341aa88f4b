from __future__ import annotations

import random

import pytest

from foliations.algebra import GaussianRational, Poly, gr


def make_poly(vars, terms) -> Poly:
    return Poly(vars, {e: gr(c) if not isinstance(c, GaussianRational) else c
                            for e, c in terms.items()})


def random_gaussian(rng: random.Random) -> GaussianRational:
    return gr(rng.randint(-4, 4), rng.randint(-2, 2) if rng.random() < 0.3 else 0)


def random_poly(rng: random.Random, vars, max_degree=6, max_terms=5,
                min_degree=0) -> Poly:
    terms = {}
    n = len(vars)
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(min_degree, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        coeff = random_gaussian(rng)
        if not coeff.is_zero():
            terms[tuple(exps)] = coeff
    return Poly(vars, terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)
