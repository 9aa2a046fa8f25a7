"""The Spouge memo and the reciprocal_gamma entry memo hand out the bits a
fresh evaluation computes, the Spouge memo keyed per working precision,
also under threads mixing precisions, and one sum serves every argument
with the same fractional part."""

import sys
import threading
from fractions import Fraction

import pytest

from fracpoly.fractional import rl_derivative_term
from fracpoly.gammafns import (_gamma_positive, _reciprocal_gamma_memo, _spouge, _spouge_memo, _spouge_wp,
                               reciprocal_gamma)
from fracpoly.mittag import MLParams, ml_eval, ml_series
from fracpoly.scalars import fraction_to_mpf, working_precision

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
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    fresh = ROUTES[route](prec)
    hits = _spouge_memo.cache_info().hits
    _reciprocal_gamma_memo.cache_clear()  # the second pass reaches the Spouge memo
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
    # the first call runs inside a wider caller scope: the key holds no
    # working precision, since the entry sets its own from the precision
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    with working_precision(4 * prec):
        cold = reciprocal_gamma(x, prec)
    info = _reciprocal_gamma_memo.cache_info()
    hit = reciprocal_gamma(x, prec)
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    fresh = reciprocal_gamma(x, prec)
    if x.denominator == 1:
        # exact, one factorial, and not memoized
        assert info.currsize == 0
        assert hit == cold == fresh == Fraction(1, 24)
    else:
        assert info.currsize == 1
        assert _bits([hit]) == _bits([cold]) == _bits([fresh])
        assert hit is cold


def test_working_precision_is_part_of_the_key():
    prec = 128
    x0 = Fraction(7, 4)
    values = {}
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    for wp in (prec + 16, _spouge_wp(prec)):
        with working_precision(wp):
            values[wp] = (_spouge(x0, prec), _gamma_positive(fraction_to_mpf(x0, wp), prec))
    (memo_lo, fresh_lo), (memo_hi, fresh_hi) = values[prec + 16], values[_spouge_wp(prec)]
    assert memo_lo._mpf_ == fresh_lo._mpf_
    assert memo_hi._mpf_ == fresh_hi._mpf_
    assert memo_lo._mpf_ != memo_hi._mpf_


def test_ml_eval_and_ml_series_keep_their_own_values():
    prec = 128
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    series_alone = _bits(ml_series(ML_DYADIC, 10, prec))
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    eval_alone = ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_
    # each route first, then the other one on the same shared arguments
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    assert ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_ == eval_alone
    assert _bits(ml_series(ML_DYADIC, 10, prec)) == series_alone
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    assert _bits(ml_series(ML_DYADIC, 10, prec)) == series_alone
    assert ml_eval(ML_DYADIC, Fraction(1, 2), precision=prec)._mpf_ == eval_alone


def test_concurrent_mixed_precision_memo():
    precs = (64, 128, 192, 256)
    jobs = [(kind, prec) for kind in ("reciprocal_gamma", "ml_series") for prec in precs]
    serial = {}
    for kind, prec in jobs:
        _spouge_memo.cache_clear()
        _reciprocal_gamma_memo.cache_clear()
        serial[(kind, prec)] = _bits(ROUTES[kind](prec))
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
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
    _spouge_memo.cache_clear()
    _reciprocal_gamma_memo.cache_clear()
    ml_series(p, 80, 128)
    info = _spouge_memo.cache_info()
    assert info.misses <= 11
    assert info.hits >= 81 - 11
