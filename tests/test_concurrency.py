"""The concurrency contract: pure functions, safe under concurrent callers
mixing working precisions."""

import ast
import sys
import threading
from fractions import Fraction
from pathlib import Path

import fracpoly.families as families
from fracpoly import clear_caches
from fracpoly.families import FamilyParams, family_numbers
from fracpoly.gammafns import reciprocal_gamma
from fracpoly.mittag import MLParams, ml_eval
from fracpoly.quadrature import gauss_jacobi_rule

# the libmp calls that can read or fill mpmath's constant memos, and the
# rule eigensolver, whose private context's precision the lock also guards
LOCKED_CALLS = {"mpf_pow", "mpf_exp", "mpf_log", "mpf_sin_pi", "mpf_pi", "mpf_e", "mpf_gamma", "to_str",
                "gauss_quadrature"}


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
    monkeypatch.setattr(families, "_FAMILY_BUDGET", 100)
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
    assert families._family_held <= 100
    assert families._family_held == sum(len(s._values) for s in families._family_cache.values())


def test_concurrent_mixed_precision_memos(monkeypatch):
    # threads mixing precisions through the reciprocal_gamma entry memo and
    # the family cache, which evicts under a small budget, get the bits a
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
    monkeypatch.setattr(families, "_FAMILY_BUDGET", 27)
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
    assert families._family_held <= 27
    assert families._family_held == sum(len(q._values) for q in families._family_cache.values())


def _float_jobs():
    """Float paths at several precisions, each returning raw mpf tuples or
    strings, so that equal results are equal bit for bit.  The series,
    polynomial and expansion kernels, the Mittag-Leffler sum and decimal
    printing do their arithmetic on libmp tuples, outside the precision
    lock; gamma and the powers take it only around their transcendental
    libmp calls, and a Gauss-Jacobi rule build around its private context."""
    from fracpoly.families import Polynomial, family_polynomial
    from fracpoly.fractional import (CaputoOrder, FracExpansion, caputo_closed_form, eval_frac_expansion,
                                     leibniz_product)
    from fracpoly.scalars import decimal_str
    from reference_loops import fraction_to_mpf, working_precision

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

    def mittag_leffler(prec):
        return [ml_eval(MLParams(a, b), z, precision=prec)._mpf_
                for a, b, z in ((Fraction(1, 2), 1, Fraction(-3, 2)), (Fraction(7, 3), Fraction(5, 4), 2), (1, 3, 0))]

    def closed_form(prec):
        p = FamilyParams("euler", Fraction(1, 2), Fraction(7, 5))
        return [c._mpf_ for order in (Fraction(1, 2), Fraction(5, 3)) for c, _ in
                caputo_closed_form(p, 7, CaputoOrder(order), prec)]

    def leibniz(prec):
        f = Polynomial([Fraction(1, 3), -2, Fraction(5, 7), 1])
        g = Polynomial([fraction_to_mpf(Fraction(k - 3, 2 * k + 5), prec) for k in range(5)], prec)
        return [c._mpf_ for c, _ in leibniz_product(f, g, Fraction(3, 2), prec)]

    def rule(prec):
        nodes, weights = gauss_jacobi_rule(Fraction(-2, 7), 7, prec)
        return [v._mpf_ for v in nodes + weights]

    def numbers(prec):
        nums = family_numbers(FamilyParams("genocchi", Fraction(2, 3), Fraction(7, 5)), 14, prec)
        return [c._mpf_ for c in nums] + [decimal_str(c, prec) for c in nums]

    def family_values(prec):
        q = family_polynomial(FamilyParams("euler", Fraction(5, 3), 3), 9, prec)
        values = [q.evaluate(t) for t in (Fraction(-5, 3), Fraction(1, 2), 4)]
        return [v._mpf_ for v in values] + [decimal_str(v, prec) for v in values]

    return [(fn, prec) for fn in (products, decimal, polynomial, expansion, mittag_leffler, closed_form, leibniz, rule)
            for prec in (64, 128, 256)] + [(fn, prec) for fn in (numbers, family_values) for prec in (80, 128, 333)]


def test_concurrent_float_paths_match_serial_bit_for_bit():
    jobs = _float_jobs()
    serial = {(fn.__name__, prec): fn(prec) for fn, prec in jobs}
    clear_caches()  # the threads compute the memoized values again
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


def test_memo_reading_calls_sit_inside_the_precision_lock():
    # a source scan: each such call must be lexically inside a ``with``
    # that names _PREC_LOCK; a function body is scanned as unlocked, since
    # it runs where it is called
    found, unlocked = set(), []

    def visit(node, locked, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            locked = False
        elif isinstance(node, ast.With):
            locked = locked or any("_PREC_LOCK" in ast.unparse(item.context_expr) for item in node.items)
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in LOCKED_CALLS:
                found.add(name)
                if not locked:
                    unlocked.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, locked, path)

    for path in sorted(Path(families.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), False, path)
    assert found == LOCKED_CALLS
    assert not unlocked


def test_rule_builds_leave_another_threads_mpmath_precision_alone():
    # a thread that runs mpmath without the package's lock sees only its
    # own precision while the package builds rules at 48 precisions
    from mpmath import mp

    own, seen, done = mp.prec, set(), threading.Event()

    def watcher():
        while not done.wait(0.0002):
            seen.add(mp.prec)

    clear_caches()
    thread = threading.Thread(target=watcher)
    thread.start()
    try:
        for prec in range(128, 505, 8):
            gauss_jacobi_rule(Fraction(-1, 2), 6, prec)
    finally:
        done.set()
        thread.join(timeout=30)
        clear_caches()
    assert not thread.is_alive()
    assert seen == {own}
