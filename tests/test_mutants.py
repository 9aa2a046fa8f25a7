"""The mutant catalogue: slips in the family construction and the Spouge
gamma that the verifier is known to miss, each a strict ``xfail`` row.

A row names a patch target in :mod:`fracpoly`, a replacement built from the
real function, the precisions, and the suites whose default grids reach
the slip.  The row's test runs those suites under the patch and asserts
that at each precision one of them reports ``fail``.  A row the verifier
misses today is ``xfail(strict=True, raises=AssertionError)``, with the
ROADMAP item that owns the gap in its reason: a strict ``xfail`` fails once
it passes, so the change that closes the gap must flip the marker, and any
error other than the assertion still fails the test.  Every row empties
the package's memos before and after it, so that no value computed under
the patch outlives it and none computed before hides it, and fails outright
if its slip never acted.
"""

import importlib

import pytest
from mpmath import libmp

from fracpoly import clear_caches
from fracpoly.families import FamilyParams
from fracpoly.mittag import MLParams
from fracpoly.verify import RunConfig, run_suite


def e_alpha_2_for_e_alpha_1(real, hits):
    """ml_series reading E_{alpha,2} in place of E_{alpha,1} when alpha >= 2."""
    def mutant(p, order, precision):
        if p.beta == 1 and p.alpha >= 2:
            hits.append(p)
            p = MLParams(p.alpha, 2)
        return real(p, order, precision)
    return mutant


def lambda_squared_for_lambda(real, hits):
    """_number_series building its denominator from lambda^2 in place of
    lambda when alpha != 1."""
    def mutant(p, order, precision):
        if p.alpha != 1:
            hits.append(p)
            p = FamilyParams(p.kind, p.alpha, p.lam ** 2, p.h)
        return real(p, order, precision)
    return mutant


def gamma_times_one_plus_2_to_the_minus_40(real, hits):
    """_gamma_positive's Spouge value gamma(x0) times (1 + 2^-40)."""
    def mutant(x, precision, wp):
        hits.append(x)
        bias = libmp.from_rational(2 ** 40 + 1, 2 ** 40, wp, libmp.round_nearest)
        return libmp.mpf_mul(real(x, precision, wp), bias, wp, libmp.round_nearest)
    return mutant


def spouge_sum_at_three_halves_times_one_plus_2_to_the_minus_60(real, hits):
    """_gamma_positive's Spouge sum at x0 = 3/2 times (1 + 2^-60): the sum is
    a factor of the value, so the value carries the bias."""
    three_halves = libmp.from_rational(3, 2, 2)

    def mutant(x, precision, wp):
        value = real(x, precision, wp)
        if x != three_halves:
            return value
        hits.append(x)
        bias = libmp.from_rational(2 ** 60 + 1, 2 ** 60, wp, libmp.round_nearest)
        return libmp.mpf_mul(value, bias, wp, libmp.round_nearest)
    return mutant


def missed(item: str, what: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {what}")


# the suites whose default grids hold a family at alpha = 2 or 3
ALPHA_ABOVE_ONE = ("theorem1", "appell", "theorem3", "theorem6", "genocchi-euler")

# one row per mutant: its name (the test id), patch target, replacement,
# precisions and suites
MUTANTS = [
    pytest.param("families.ml_series", e_alpha_2_for_e_alpha_1, (64, 128), ALPHA_ABOVE_ONE,
                 id="mittag-leffler-beta-2",
                 marks=missed("7", "no suite checks the generating function at alpha >= 2")),
    pytest.param("families._number_series", lambda_squared_for_lambda, (64, 128), ALPHA_ABOVE_ONE,
                 id="lambda-squared",
                 marks=missed("7", "no suite checks the generating function at alpha != 1")),
    # at 128 bits this bias fails eq10 and theorem4
    pytest.param("gammafns._gamma_positive", gamma_times_one_plus_2_to_the_minus_40, (64, 80),
                 ("eq10", "theorem4"), id="gamma-2^-40-below-128-bits",
                 marks=missed("2 and 15", "the identity and oracle tolerances pass a 2^-40 gamma error "
                              "at 64 and 80 bits")),
    pytest.param("gammafns._gamma_positive", spouge_sum_at_three_halves_times_one_plus_2_to_the_minus_60, (128,),
                 ("ml-consistency",), id="spouge-sum-2^-60-at-3/2",
                 marks=missed("12", "both ml-consistency routes read the same Spouge gamma")),
]


@pytest.mark.parametrize("target, replacement, precisions, suites", MUTANTS)
def test_mutant_fails_a_suite(target, replacement, precisions, suites, monkeypatch):
    module, attr = target.rsplit(".", 1)
    module = importlib.import_module(f"fracpoly.{module}")
    hits = []
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, replacement(getattr(module, attr), hits))
            verdicts = {prec: [run_suite(s, RunConfig(precision=prec)).verdict for s in suites]
                        for prec in precisions}
    finally:
        clear_caches()
    if not hits:
        pytest.fail(f"the {replacement.__name__} patch of {target} never acted on the suites {suites}")
    assert all("fail" in row for row in verdicts.values()), verdicts
