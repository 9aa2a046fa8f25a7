"""The Spouge memo, the reciprocal_gamma entry memo and the memos of the
power rule and of the quadrature values hand out the bits a fresh
evaluation computes, the Spouge memo keyed per working precision, also
under threads mixing precisions, and one sum serves every argument with
the same fractional part; the Spouge coefficients read from the shared
root table are those of a cold build in any build order; clear_caches()
empties every memo of the package."""

import importlib
import pkgutil
import random
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mp

import fracpoly
import fracpoly.families as families
import fracpoly.gammafns as gammafns
import fracpoly.verify as verify
from fracpoly import clear_caches
from fracpoly.families import FamilyParams, family_polynomial
from fracpoly.fractional import CaputoOrder, _power_rule, rl_derivative_term
from fracpoly.gammafns import _gamma_positive, _reciprocal_gamma_memo, _spouge_memo, _spouge_wp, reciprocal_gamma
from fracpoly.mittag import MLParams, ml_eval, ml_series
from fracpoly.scalars import Coefficients, tuple_in
from reference_loops import working_precision

# the reflection branch (x < 0), the step up from below 1 and rising products
ARGS = (Fraction(1, 3), Fraction(-7, 5), Fraction(11, 4), Fraction(5, 2))
ML = MLParams(Fraction(1, 3), Fraction(6, 5))
# the term arguments alpha*n + beta are exact rationals, so both routes ask
# for the same fractional parts, each at its own working precision
ML_DYADIC = MLParams(Fraction(1, 2), Fraction(1, 4))
# gamma(b+1)/gamma(b-a+1) at non-integer exponents b and order a = 1/5:
# both arguments are non-integers
EXPONENTS = (Fraction(1, 3), Fraction(7, 4), Fraction(5, 2))

ROUTES = {
    "rl_derivative_term": lambda prec: [rl_derivative_term(b, Fraction(1, 5), prec)[0]
                                        for b in EXPONENTS],
    "reciprocal_gamma": lambda prec: [reciprocal_gamma(x, prec) for x in ARGS],
    "ml_series": lambda prec: list(ml_series(ML, 8, prec)),
    "ml_eval": lambda prec: [ml_eval(ML, Fraction(3, 2), precision=prec)],
}


def _bits(values):
    return [v._mpf_ for v in values]


@pytest.mark.parametrize("prec", (64, 128, 512))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_memo_hit_equals_fresh_evaluation(route, prec):
    clear_caches()
    fresh = ROUTES[route](prec)
    hits = _spouge_memo.cache_info().hits
    # the second pass reaches the Spouge memo: empty the memos above it
    _reciprocal_gamma_memo.cache_clear()
    _power_rule.cache_clear()
    memoized = ROUTES[route](prec)
    assert _spouge_memo.cache_info().hits > hits
    assert memoized == fresh
    assert _bits(memoized) == _bits(fresh)


# an integer, a reflected negative argument, one stepped up from below 1
# and one taken down by a rising product
ENTRY_ARGS = (Fraction(5), Fraction(-7, 5), Fraction(1, 3), Fraction(23, 4))


@pytest.mark.parametrize("prec", (64, 128, 512))
@pytest.mark.parametrize("x", ENTRY_ARGS)
def test_entry_memo_hit_equals_fresh_evaluation(x, prec):
    # the first call runs inside a wider caller scope: the key holds the
    # working precision the entry sets from the precision, not the caller's
    clear_caches()
    with working_precision(4 * prec):
        cold = reciprocal_gamma(x, prec)
    info = _reciprocal_gamma_memo.cache_info()
    hit = reciprocal_gamma(x, prec)
    clear_caches()
    fresh = reciprocal_gamma(x, prec)
    if x.denominator == 1:
        # exact, one factorial, and not memoized
        assert info.currsize == 0
        assert hit == cold == fresh == Fraction(1, 24)
    else:
        assert info.currsize == 1
        assert _bits([hit]) == _bits([cold]) == _bits([fresh])
        assert hit is cold


# a route through each memo added over the gamma memos: the power rule at
# integer and non-integer orders, exponents, derivatives and integrals, and
# the quadrature values of one family polynomial
MEMOS = {
    "power_rule": (lambda prec: [rl_derivative_term(b, a, prec) for b in (2, Fraction(7, 4))
                                 for a in (Fraction(1, 5), 2, -3, Fraction(-3, 2))], _power_rule),
    "oracle_values": (lambda prec: verify._oracle_values(FamilyParams("euler", 1, 2), 5, CaputoOrder(Fraction(3, 2)),
                                                         prec), verify._oracle_values),
}


def _flat(v):
    """The bits of a route's values: an mpf as its tuple, a sequence or
    container item by item, an exact value as it is."""
    if isinstance(v, mp.mpf):
        return v._mpf_
    if isinstance(v, (tuple, list, Coefficients)):
        return [_flat(x) for x in v]
    return v


@pytest.mark.parametrize("prec", (64, 128, 512))
@pytest.mark.parametrize("memo", sorted(MEMOS))
def test_route_memo_hit_equals_fresh_evaluation(memo, prec):
    # the first pass runs inside a wider caller scope, the second only hits,
    # and a pass after emptying every memo gives the same bits
    route, cache = MEMOS[memo]
    clear_caches()
    with working_precision(4 * prec):
        cold = route(prec)
    info = cache.cache_info()
    hit = route(prec)
    assert cache.cache_info().misses == info.misses
    assert cache.cache_info().hits > info.hits
    clear_caches()
    fresh = route(prec)
    assert _flat(hit) == _flat(cold) == _flat(fresh)


def test_working_precision_is_part_of_the_key():
    prec = 128
    x0 = Fraction(7, 4)
    values = {}
    clear_caches()
    for wp in (prec + 16, _spouge_wp(prec)):
        values[wp] = (_spouge_memo(x0, prec, wp), _gamma_positive(tuple_in(x0, wp), prec, wp))
    (memo_lo, fresh_lo), (memo_hi, fresh_hi) = values[prec + 16], values[_spouge_wp(prec)]
    assert memo_lo == fresh_lo
    assert memo_hi == fresh_hi
    assert memo_lo != memo_hi


def test_ml_eval_and_ml_series_keep_their_own_values():
    prec = 128
    clear_caches()
    series_alone = _bits(ml_series(ML_DYADIC, 10, prec))
    clear_caches()
    eval_alone = ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_
    # each route first, then the other one on the same shared arguments
    clear_caches()
    assert ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_ == eval_alone
    assert _bits(ml_series(ML_DYADIC, 10, prec)) == series_alone
    clear_caches()
    assert _bits(ml_series(ML_DYADIC, 10, prec)) == series_alone
    assert ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_ == eval_alone


def test_concurrent_mixed_precision_memo():
    precs = (64, 128, 192, 256)
    jobs = [(kind, prec) for kind in ("reciprocal_gamma", "ml_series") for prec in precs]
    serial = {}
    for kind, prec in jobs:
        clear_caches()
        serial[(kind, prec)] = _bits(ROUTES[kind](prec))
    clear_caches()
    results = []
    errors = []

    def worker(offset):
        try:
            for i in range(len(jobs)):
                kind, prec = jobs[(i + offset) % len(jobs)]
                results.append(((kind, prec), _bits(ROUTES[kind](prec))))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 6 * len(jobs)
    for key, bits in results:
        assert bits == serial[key]


def test_one_sum_per_fractional_part():
    # 7/11 n + 6/5 = (35 n + 66)/55 takes 11 fractional parts over n = 0..80
    p = MLParams(Fraction(7, 11), Fraction(6, 5))
    clear_caches()
    ml_series(p, 80, 128)
    info = _spouge_memo.cache_info()
    assert info.misses <= 11
    assert info.hits >= 81 - 11


# the precisions of the root-table builds: below, at and above the default
SPOUGE_PRECISIONS = (64, 90, 128, 333, 511, 700)


@pytest.fixture(scope="module")
def cold_spouge():
    """Each precision's coefficients, built alone in an empty root table,
    and the root precision of that table, which is the build's own G."""
    cold = {}
    try:
        for prec in SPOUGE_PRECISIONS:
            clear_caches()
            cold[prec] = gammafns._spouge_coeffs(prec), gammafns._roots[0]
    finally:
        clear_caches()
    return cold


@pytest.mark.parametrize("order", [
    SPOUGE_PRECISIONS,
    SPOUGE_PRECISIONS[::-1],
    tuple(random.Random(5).sample(SPOUGE_PRECISIONS, len(SPOUGE_PRECISIONS))),
], ids=("ascending", "descending", "shuffled"))
def test_spouge_coefficients_from_the_root_table_equal_a_cold_build(order, cold_spouge):
    clear_caches()
    try:
        for prec in order:
            assert gammafns._spouge_coeffs(prec) == cold_spouge[prec][0]
        # the table has grown to the largest G and length asked for
        assert gammafns._roots[0] == max(g for _, g in cold_spouge.values())
        assert len(gammafns._roots[1]) == max(len(c[1]) for c, _ in cold_spouge.values())
    finally:
        clear_caches()


def test_threads_building_spouge_coefficients_at_once(cold_spouge):
    # each of four threads (more than the cores of a small CI machine)
    # builds every precision, uncached, in its own order, so they grow and
    # read the root table at the same time
    built, errors = [], []

    def worker(order):
        try:
            for prec in order:
                built.append((prec, gammafns._spouge_coeffs.__wrapped__(prec)))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    clear_caches()
    orders = [SPOUGE_PRECISIONS, SPOUGE_PRECISIONS[::-1]]
    orders += [random.Random(seed).sample(SPOUGE_PRECISIONS, len(SPOUGE_PRECISIONS)) for seed in (6, 7)]
    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
        clear_caches()
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(built) == len(orders) * len(SPOUGE_PRECISIONS)
    for prec, coeffs in built:
        assert coeffs == cold_spouge[prec][0]


def test_spouge_build_after_clear_caches_starts_a_new_root_table(cold_spouge):
    clear_caches()
    try:
        gammafns._spouge_coeffs(700)
        clear_caches()
        assert gammafns._roots == (0, ())
        assert gammafns._spouge_coeffs(64) == cold_spouge[64][0]
        assert gammafns._roots[0] == cold_spouge[64][1]
    finally:
        clear_caches()


def test_clear_caches_empties_every_memo_of_the_package(monkeypatch):
    # a module-level memo that clear_caches() leaves out would let a test
    # that patches a route run on values held from before the patch
    family_polynomial(FamilyParams("euler", 1, 2), 5)
    reciprocal_gamma(Fraction(1, 3), 128)
    assert gammafns._roots[1]
    found, cleared = [], []

    class Spy:
        def __init__(self, name):
            self.name = name

        def cache_clear(self):
            cleared.append(self.name)

    for info in pkgutil.iter_modules(fracpoly.__path__, "fracpoly."):
        if info.name == "fracpoly.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in list(vars(module).items()):
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                found.append(f"{module.__name__}.{name}")
                monkeypatch.setattr(module, name, Spy(found[-1]))
    clear_caches()
    assert len(found) >= 7
    assert sorted(cleared) == sorted(found)
    assert not families._family_cache
    assert families._family_held == 0
    assert gammafns._roots == (0, ())
