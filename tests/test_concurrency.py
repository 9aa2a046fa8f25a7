"""The concurrency contract: pure functions, safe under concurrent callers
mixing working precisions."""

import sys
import threading
from fractions import Fraction

import fracpoly.families as families
from fracpoly import clear_caches
from fracpoly.families import FamilyParams, family_numbers
from fracpoly.gammafns import reciprocal_gamma
from fracpoly.mittag import MLParams, ml_eval


def test_concurrent_mixed_precision_gamma():
    serial = {
        (num, prec): reciprocal_gamma(Fraction(num, 3), prec)._mpf_
        for num in (1, 2, 4, 5, 7, 8)
        for prec in (64, 128, 192)
    }
    results = {}
    errors = []

    def worker(num, prec):
        try:
            for _ in range(5):
                results[(num, prec, threading.get_ident())] = reciprocal_gamma(Fraction(num, 3), prec)._mpf_
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(num, prec))
        for num in (1, 2, 4, 5, 7, 8)
        for prec in (64, 128, 192)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for (num, prec, _), val in results.items():
        assert val == serial[(num, prec)]


def test_concurrent_family_numbers_and_ml():
    want_nums = family_numbers(FamilyParams("bernoulli", 1, 2), 12)
    want_ml = ml_eval(MLParams(Fraction(1, 2), 1), 1, precision=128)._mpf_
    failures = []

    def nums_worker():
        got = family_numbers(FamilyParams("bernoulli", 1, 2), 12)
        if got != want_nums:
            failures.append("numbers")

    def ml_worker():
        got = ml_eval(MLParams(Fraction(1, 2), 1), 1, precision=128)._mpf_
        if got != want_ml:
            failures.append("ml")

    threads = [threading.Thread(target=nums_worker) for _ in range(6)]
    threads += [threading.Thread(target=ml_worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


def test_concurrent_prefix_series_cache(monkeypatch):
    # threads extend and slice the same (params, precision) entries while
    # others evict; each result must be the single-threaded value
    shared = [FamilyParams("bernoulli", 1, Fraction(1, 2)), FamilyParams("euler", Fraction(1, 2), 2)]
    jobs = []
    for t in range(8):
        params = shared + [FamilyParams("genocchi", 2, Fraction(t + 1, 3))]
        jobs.append([(p, 5 + (11 * (t + i)) % 36, (128, 256)[(t + i) % 2])
                     for i in range(3) for p in params])

    def numbers(p, order, prec):
        nums = family_numbers(p, order, prec)
        return nums.precision, [v._mpf_ if nums.precision else v for v in nums]

    serial = {}
    for job in jobs:
        for p, order, prec in job:
            clear_caches()
            serial[p, order, prec] = numbers(p, order, prec)
    clear_caches()
    monkeypatch.setattr(families, "_SERIES_CACHE_SIZE", 4)
    start = threading.Barrier(len(jobs))
    failures = []

    def worker(job):
        try:
            start.wait(timeout=30)
            for p, order, prec in job:
                if numbers(p, order, prec) != serial[p, order, prec]:
                    failures.append((p, order, prec))
        except Exception as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert len(families._series_cache) <= 4


def test_concurrent_mixed_precision_memos(monkeypatch):
    # threads mixing precisions through the reciprocal_gamma entry memo and
    # the polynomial memo, which evicts under a small budget, get the bits a
    # serial cold call gets
    from fracpoly.families import family_polynomial

    def gamma(x, prec):
        return reciprocal_gamma(x, prec)._mpf_

    def polynomial(p, prec):
        q = family_polynomial(p, 8, prec)
        return q.precision, [v._mpf_ if q.precision else v for v in q]

    args = [(gamma, Fraction(num, 4)) for num in (-5, 1, 7, 13)]
    args += [(polynomial, FamilyParams(kind, alpha, 2)) for kind in ("bernoulli", "euler")
             for alpha in (1, Fraction(1, 2))]
    jobs = [(fn, arg, prec) for fn, arg in args for prec in (64, 128, 256)]
    serial = {}
    for fn, arg, prec in jobs:
        clear_caches()
        serial[fn.__name__, arg, prec] = fn(arg, prec)
    clear_caches()
    monkeypatch.setattr(families, "_POLYNOMIAL_MEMO_COEFFS", 27)
    start = threading.Barrier(6)
    failures = []

    def worker(offset):
        try:
            start.wait(timeout=30)
            for i in range(2 * len(jobs)):
                fn, arg, prec = jobs[(offset + i) % len(jobs)]
                if fn(arg, prec) != serial[fn.__name__, arg, prec]:
                    failures.append((fn.__name__, arg, prec))
        except Exception as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(5 * t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert families._polynomial_held <= 27
    assert families._polynomial_held == sum(q.degree + 1 for q in families._polynomial_memo.values())


def _float_jobs():
    """Lock-guarded float paths at several precisions, each returning raw
    mpf tuples or strings, so that equal results are equal bit for bit."""
    from fracpoly.families import Polynomial
    from fracpoly.fractional import FracExpansion, eval_frac_expansion
    from fracpoly.scalars import decimal_str, fraction_to_mpf, working_precision

    def products(prec):
        x, y = fraction_to_mpf(Fraction(1, 3), prec), fraction_to_mpf(Fraction(-2, 7), prec)
        e = FracExpansion([((x, y), 0), ((Fraction(5, 11), x, 3), 1), ((y, y, Fraction(1, 7)), 2),
                           (x, 3), (y, 3), ((2, Fraction(1, 3)), 4)], prec)
        return [c._mpf_ for c, _ in e]

    def decimal(prec):
        with working_precision(prec):
            x = fraction_to_mpf(Fraction(22, 7), prec)
            vals = (x, x / 3, x * x, x / -10**9)
        return [decimal_str(v, prec) for v in vals]

    def polynomial(prec):
        p = Polynomial([fraction_to_mpf(Fraction(k + 1, 2 * k + 3), prec) for k in range(9)], prec)
        return [p.evaluate(t)._mpf_ for t in (Fraction(1, 3), -2, Fraction(3, 5))]

    def expansion(prec):
        e = FracExpansion(((fraction_to_mpf(Fraction(k + 2, 5), prec), Fraction(2 * k + 1, 2))
                           for k in range(6)), prec)
        return [eval_frac_expansion(e, t, prec)._mpf_ for t in (Fraction(1, 2), 1, 3)]

    return [(fn, prec) for fn in (products, decimal, polynomial, expansion) for prec in (64, 128, 256)]


def test_concurrent_float_paths_match_serial_bit_for_bit():
    jobs = _float_jobs()
    serial = {(fn.__name__, prec): fn(prec) for fn, prec in jobs}
    start = threading.Barrier(6)
    failures = []

    def worker(offset):
        try:
            start.wait(timeout=30)
            for i in range(2 * len(jobs)):
                fn, prec = jobs[(offset + i) % len(jobs)]
                if fn(prec) != serial[fn.__name__, prec]:
                    failures.append((fn.__name__, prec))
        except Exception as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(5 * t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
