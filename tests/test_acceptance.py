"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The runtime budgets are asserted literally (warm-import wall
clock; caches within one process run are fair game, matching CLI usage).
"""

import math
import time
from fractions import Fraction

import pytest

import fracpoly.verify as verify
from fracpoly.families import FamilyKind, FamilyParams, family_numbers
from fracpoly.verify import RunConfig, run_suite


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")


def _run(num, name, budget, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - t0
    _report(num, name, ok and elapsed < budget, elapsed, budget)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s > {budget}s"


def test_criterion_01_classical_ground_truth():
    def body():
        n_max = 24
        bern = verify.bernoulli_oracle(n_max)
        eul = verify.euler_at_zero_oracle(n_max)
        gen = verify.genocchi_oracle(n_max)
        for kind, oracle in ((FamilyKind.BERNOULLI, bern), (FamilyKind.EULER, eul),
                             (FamilyKind.GENOCCHI, gen)):
            nums = family_numbers(FamilyParams(kind, 1, 1), n_max).coeffs
            for n in range(n_max + 1):
                if not (nums[n].is_exact and nums[n].value == oracle[n]):
                    return False, f"{kind} index {n}: {nums[n]} != {oracle[n]}"
        return True, ""

    _run(1, "classical-number ground truth", 1.0, body)


def test_criterion_02_addition_binomial_form():
    def body():
        rep = run_suite("theorem1", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err == 0.0, rep

    _run(2, "addition/binomial form", 5.0, body)


def test_criterion_03_appell_property():
    def body():
        rep = run_suite("appell", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err == 0.0, rep

    _run(3, "Appell derivative property", 2.0, body)


def test_criterion_04_unit_interval_integral():
    def body():
        corrected = run_suite("theorem3", RunConfig())
        literal = run_suite("theorem3-literal", RunConfig())
        ok = corrected.verdict == "pass" and corrected.max_rel_err == 0.0
        # the literal printed form must demonstrably fail for some n <= 3
        ok = ok and literal.verdict == "known-discrepancy"
        return ok, (corrected, literal)

    _run(4, "unit-interval integral (corrected + literal defect)", 2.0, body)


def test_criterion_05_ml_closed_forms():
    def body():
        rep = run_suite("eq5", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err <= 1e-12, rep

    _run(5, "Mittag-Leffler closed forms", 1.0, body)


def test_criterion_06_composition():
    def body():
        rep = run_suite("eq8", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err <= 1e-24, rep

    _run(6, "integral/derivative composition", 2.0, body)


def test_criterion_07_leibniz():
    def body():
        rep = run_suite("eq10", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err <= 1e-24, rep

    _run(7, "product rule", 2.0, body)


def test_criterion_08_closed_forms_vs_quadrature():
    def body():
        for name in ("theorem4", "theorem5", "theorem6"):
            rep = run_suite(name, RunConfig())
            if rep.verdict != "pass" or rep.max_rel_err > 1e-10:
                return False, rep
        return True, ""

    _run(8, "closed forms vs quadrature oracle", 30.0, body)


def test_criterion_09_specialization_chain():
    def body():
        rep = run_suite("specialization", RunConfig())
        return rep.verdict == "pass" and rep.max_rel_err == 0.0, rep

    _run(9, "specialization chain", 1.0, body)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    # corrupt the single storage point every consumer reads: the cached
    # generating series (number k is k! times ordinary coefficient k)
    import fracpoly.families as families
    from fracpoly.series import TruncatedSeries

    real = families._family_series_cached

    def body():
        for kind in (FamilyKind.BERNOULLI, FamilyKind.EULER, FamilyKind.GENOCCHI):
            for idx in range(9):
                def corrupted(p, order, precision, _kind=kind, _idx=idx):
                    series = real(p, order, precision)
                    if (p.kind is _kind and p.alpha == 1 and p.lam == 1
                            and p.h == 1 and _idx <= order):
                        values = [c.value for c in series.coeffs]  # exact at alpha = lambda = 1
                        values[_idx] += Fraction(1, math.factorial(_idx))
                        series = TruncatedSeries(values)
                    return series

                monkeypatch.setattr(families, "_family_series_cached", corrupted)
                detected = run_suite("classical-numbers", RunConfig()).verdict == "fail"
                if not detected:
                    # escalate to the other gating suites before giving up
                    for name in ("theorem1", "appell", "theorem3", "theorem4"):
                        if run_suite(name, RunConfig()).verdict == "fail":
                            detected = True
                            break
                monkeypatch.setattr(families, "_family_series_cached", real)
                if not detected:
                    return False, f"corruption of {kind} number {idx} went unnoticed"
        return True, ""

    _run(10, "mutation sensitivity", 30.0, body)
