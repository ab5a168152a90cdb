import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings

from ccsym import symbols
from ccsym.laurent import LaurentRing, require_units
from ccsym.symbols import _evaluate_term, cc_symbol, steinberg_expand

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return random.Random(20260814)


def _steinberg_symbol(args):
    """higher_symbol by the route that predates the closed form: Steinberg
    expansion in the outermost variable, `_evaluate_term` on each term with
    this function for its recursion, and cc_symbol at depth 1."""
    ring = args[0].ring
    require_units("higher symbol needs unit arguments", *args)
    if ring.depth() == 1:
        return cc_symbol(*args)
    scalar = ring
    while isinstance(scalar, LaurentRing):
        scalar = scalar.base
    out = scalar.one()
    with mock.patch.object(symbols, "higher_symbol", _steinberg_symbol):
        for term in steinberg_expand(args):
            out = out * _evaluate_term(term, ring)
    return out


@pytest.fixture
def steinberg_symbol():
    return _steinberg_symbol
