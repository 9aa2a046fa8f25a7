import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import fracpoly.verify as verify
from fracpoly import clear_caches
from fracpoly.cli import cli
from fracpoly.scalars import mpf_to_fraction
from fracpoly.errors import DomainError
from fracpoly.verify import SUITES, RunConfig, check_grids, run_suite, unread_fields
from reference_loops import fraction_to_mpf, working_precision


@pytest.fixture()
def runner():
    return CliRunner()


GOLDEN = Path(__file__).parent / "golden"


def invoke(runner, *args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


def test_numbers_bernoulli(runner):
    r = invoke(runner, "numbers", "--family", "bernoulli", "--alpha", "1",
               "--lambda", "1", "--max", "4")
    assert r.exit_code == 0
    values = [line.split()[1] for line in r.output.strip().splitlines()[1:]]
    assert values == ["1", "-1/2", "1/6", "0", "-1/30"]


def test_numbers_genocchi(runner):
    r = invoke(runner, "numbers", "--family", "genocchi", "--max", "2")
    values = [line.split()[1] for line in r.output.strip().splitlines()[1:]]
    assert values == ["0", "1", "-1"]


def test_numbers_euler_alpha2(runner):
    r = invoke(runner, "numbers", "--family", "euler", "--alpha", "2", "--max", "0")
    values = [line.split()[1] for line in r.output.strip().splitlines()[1:]]
    assert values == ["1"]


def test_numbers_rejects_bad_params(runner):
    r = runner.invoke(cli, ["numbers", "--family", "euler", "--lambda", "-1", "--max", "2"])
    assert r.exit_code == 2


def test_numbers_json_roundtrip(runner):
    r = invoke(runner, "numbers", "--family", "bernoulli", "--lambda", "2",
               "--max", "6", "--format", "json")
    rows = json.loads(r.output)
    from fracpoly.families import FamilyParams, family_numbers

    want = family_numbers(FamilyParams("bernoulli", 1, 2), 6)
    for row, w in zip(rows, want):
        assert row["domain"] == "rational"
        assert Fraction(row["value"]) == w


def test_numbers_json_roundtrip_float(runner):
    # non-integer alpha forces the float domain; printed strings must parse
    # back to the same mpf at the stated precision
    r = invoke(runner, "numbers", "--family", "euler", "--alpha", "1/2",
               "--max", "3", "--format", "json")
    rows = json.loads(r.output)
    from fracpoly.families import FamilyParams, family_numbers

    want = family_numbers(FamilyParams("euler", Fraction(1, 2), 1), 3)
    for row, w in zip(rows, want):
        assert row["domain"] == "float"
        assert row["precision"] == 128
        assert fraction_to_mpf(Fraction(row["value"]), 128)._mpf_ == w._mpf_


def test_output_determinism(runner):
    args = ["verify", "eq5", "appell", "--format", "json"]
    a = invoke(runner, *args).output
    b = invoke(runner, *args).output
    assert a == b
    args = ["numbers", "--family", "euler", "--alpha", "1/2", "--max", "8", "--format", "csv"]
    assert invoke(runner, *args).output == invoke(runner, *args).output


def test_csv_format(runner):
    r = invoke(runner, "numbers", "--family", "bernoulli", "--max", "2", "--format", "csv")
    lines = r.output.strip().splitlines()
    assert lines[0] == "index,value,domain,precision"
    assert lines[1] == "0,1,rational,"
    assert lines[2] == "1,-1/2,rational,"


def test_poly_command(runner):
    r = invoke(runner, "poly", "--family", "bernoulli", "--degree", "2")
    values = [line.split()[1] for line in r.output.strip().splitlines()[1:]]
    assert values == ["1/6", "-1", "1"]


def test_eval_command(runner):
    r = invoke(runner, "eval", "--family", "bernoulli", "--degree", "2", "--at", "1/2")
    assert r.exit_code == 0
    assert "-1/12" in r.output


def test_mleval_basic(runner):
    r = invoke(runner, "mleval", "--alpha", "1", "--beta", "1", "--z", "1")
    assert r.exit_code == 0
    assert "2.71828182845904523536" in r.output


def test_mleval_closed_form(runner):
    r = invoke(runner, "mleval", "--alpha", "1", "--beta", "2", "--z", "1", "--closed-form")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert len(lines) == 3
    assert "1.718281828459045235" in lines[1]
    assert "1.718281828459045235" in lines[2]


def test_mleval_at_zero(runner):
    r = invoke(runner, "mleval", "--alpha", "2", "--beta", "1", "--z", "0")
    assert "1.0" in r.output


def test_mleval_envelope_exit(runner):
    r = runner.invoke(cli, ["mleval", "--alpha", "1", "--beta", "1", "--z", "60"])
    assert r.exit_code == 2


def test_fracderiv_with_oracle(runner):
    r = invoke(runner, "fracderiv", "--family", "bernoulli", "--lambda", "2",
               "--degree", "2", "--order", "0.5", "--at", "1.0")
    assert r.exit_code == 0
    lines = [l for l in r.output.strip().splitlines() if l and not l.startswith(("route", "coefficient"))]
    closed = next(l for l in lines if l.startswith("closed-form"))
    quad = next(l for l in lines if l.startswith("quadrature"))
    a = Fraction(closed.split()[-1])
    b = Fraction(quad.split()[-1])
    assert abs(a - b) <= Fraction(1, 10 ** 10) * max(1, abs(b))


def test_fracderiv_integer_order(runner):
    r = invoke(runner, "fracderiv", "--degree", "1", "--order", "1", "--lambda", "1",
               "--at", "1.0")
    assert r.exit_code == 0
    closed = next(l for l in r.output.splitlines() if l.startswith("closed-form"))
    assert closed.split()[-1] in ("1", "1.0")


def test_fracderiv_degree_below_order(runner):
    # vanishing derivative: empty expansion, value 0, exit 0
    r = invoke(runner, "fracderiv", "--degree", "0", "--order", "0.5", "--at", "1.0")
    assert r.exit_code == 0
    closed = next(l for l in r.output.splitlines() if l.startswith("closed-form"))
    assert closed.split()[-1] in ("0", "0.0")


def test_fracderiv_json_single_document(runner):
    r = invoke(runner, "fracderiv", "--family", "bernoulli", "--h", "2", "--lambda", "2",
               "--degree", "3", "--order", "0.5", "--at", "1.0", "--format", "json")
    assert r.exit_code == 0
    doc = json.loads(r.output)  # must parse as one document
    assert set(doc) == {"terms", "values"}
    a = Fraction(doc["values"]["closed-form"])
    b = Fraction(doc["values"]["quadrature"])
    assert abs(a - b) <= Fraction(1, 10 ** 10) * max(1, abs(b))


def test_numbers_higher_order(runner):
    r = invoke(runner, "numbers", "--family", "bernoulli", "--h", "2", "--lambda", "1",
               "--max", "2")
    values = [line.split()[1] for line in r.output.strip().splitlines()[1:]]
    assert values == ["1", "-1", "5/6"]


def test_family_alpha_zero_rejected(runner):
    r = runner.invoke(cli, ["numbers", "--family", "bernoulli", "--alpha", "0", "--max", "2"])
    assert r.exit_code == 2
    assert r.output == "error: family parameter alpha must be positive, got 0\n"


def test_fracint_examples(runner):
    r = invoke(runner, "fracint", "--family", "bernoulli", "--degree", "0",
               "--order", "1")
    assert r.exit_code == 0
    body = r.output.strip().splitlines()[1]
    assert body.split() == ["1", "1"]  # the integral of 1 is t
    r = invoke(runner, "fracint", "--degree", "1", "--order", "2", "--at", "1.0")
    assert r.exit_code == 0


def test_verify_pass_exit_zero(runner):
    r = invoke(runner, "verify", "appell", "--alpha", "2", "--lambda", "3",
               "--max-degree", "12")
    assert r.exit_code == 0
    assert "pass" in r.output


def test_verify_quadrature_suite(runner):
    r = invoke(runner, "verify", "theorem4", "--lambda", "2", "--order", "0.5",
               "--max-degree", "8")
    assert r.exit_code == 0
    assert "pass" in r.output


def test_verify_literal_known_discrepancy(runner):
    r = invoke(runner, "verify", "theorem3-literal")
    assert r.exit_code == 0
    assert "known-discrepancy" in r.output


def test_verify_all_exit_zero(runner):
    r = invoke(runner, "verify", "all", env={"FRACPOLY_PRECISION": None})
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    verdicts = {line.split()[-1] for line in lines[1:]}
    assert verdicts <= {"pass", "known-discrepancy"}
    assert "known-discrepancy" in verdicts  # the two literal suites
    # the output contract: comparisons, errors and tolerances to the digit
    assert r.output == (GOLDEN / "verify_all.txt").read_text()


@pytest.mark.parametrize("precision", [64, 128, 512])
def test_verify_all_json_matches_golden_bit_for_bit(runner, precision):
    # the JSON prints every error and tolerance in full, so a change in the
    # last bit of any route shows here; the text table prints three digits
    r = invoke(runner, "verify", "all", "--precision", str(precision), "--format", "json")
    assert r.exit_code == 0
    assert r.stdout == (GOLDEN / f"verify_all_{precision}.json").read_text()


def test_verify_all_with_warm_memos_matches_golden(runner):
    # one process: each run finds the memos as the runs before it left them,
    # and a hit must give the bits a cold run computes
    clear_caches()
    for precision in (512, 64, 128):
        r = invoke(runner, "verify", "all", "--precision", str(precision), "--format", "json")
        assert r.stdout == (GOLDEN / f"verify_all_{precision}.json").read_text()


def test_verify_all_computes_each_repeated_value_once(runner, monkeypatch):
    # a cold 128-bit `verify all` asks for 1/gamma 6,943 times at 229
    # arguments, 106 of them non-integers (the 123 integers are exact
    # factorials, not memoized), for 636 distinct polynomials 2,803 times,
    # and for number series under 43 cache keys, each built at its top order.
    # It takes 2,110 power-rule steps at 121 keys and 493 quadrature oracle
    # set-ups at 377 keys; the 337 with a nonzero n-th derivative share 15
    # set-ups of (order, node count, points, precision) over 8 rules.
    # Its Mittag-Leffler sums ask for a term's 1/gamma once per (alpha,
    # beta) and suite: 789 times at 103 arguments.  It takes mpmath's
    # precision lock 123 times, in every module that holds it.  The family
    # cache evicts none of its series and polynomials: 6,351 coefficients in
    # all, below its budget
    import fracpoly.families as families
    import fracpoly.fractional as fractional
    import fracpoly.gammafns as gammafns
    import fracpoly.mittag as mittag
    import fracpoly.quadrature as quadrature
    import fracpoly.scalars as scalars

    clear_caches()
    builds, series, terms, locks = [], [], [], []
    real, real_series = families._family_polynomial, families._number_series
    real_rgamma, real_lock = mittag._rgamma, scalars._PREC_LOCK

    class CountingLock:
        def __enter__(self):
            locks.append(1)
            return real_lock.__enter__()

        def __exit__(self, *exc):
            return real_lock.__exit__(*exc)

    def counting_rgamma(x, precision, wp):
        terms.append(x)
        return real_rgamma(x, precision, wp)

    def counting(p, n, precision):
        builds.append((p, n, precision))
        return real(p, n, precision)

    def counting_series(p, order, precision):
        series.append((p, order, precision))
        return real_series(p, order, precision)

    monkeypatch.setattr(families, "_family_polynomial", counting)
    monkeypatch.setattr(families, "_number_series", counting_series)
    monkeypatch.setattr(mittag, "_rgamma", counting_rgamma)
    counting_lock = CountingLock()
    for name, module in list(sys.modules.items()):
        if name.startswith("fracpoly.") and getattr(module, "_PREC_LOCK", None) is real_lock:
            monkeypatch.setattr(module, "_PREC_LOCK", counting_lock)
    r = invoke(runner, "verify", "all", "--format", "json")
    assert r.stdout == (GOLDEN / "verify_all_128.json").read_text()
    assert fractional._oracle_setup.cache_info().misses <= 15
    assert quadrature._rule_cached.cache_info().misses <= 8
    assert len(terms) <= 789 and len(set(terms)) == 103
    assert len(locks) <= 123
    assert gammafns._reciprocal_gamma_memo.cache_info().misses <= 106
    assert len(builds) <= 636
    assert len(series) <= 45
    assert fractional._power_rule.cache_info().misses <= 121
    assert verify._oracle_values.cache_info().misses <= 377
    held = list(families._family_cache)
    assert [len(key) for key in held].count(2) == 43 and len(held) == 43 + 636
    assert families._family_held == sum(len(v._values) for v in families._family_cache.values()) == 6351
    assert families._family_held < families._FAMILY_BUDGET


# float requests of the benchmark's kinds at 128 to 511 bits: a table, a
# reflected gamma argument, a Mittag-Leffler sum and closed form, both
# operators and a print beyond 2^3500
FLOAT_CALLS = (
    "numbers --family euler --alpha 16/11 --lambda 5/8 --max 8 --precision 301",
    "mleval --alpha 17/11 --beta 8/5 --z -5/8 --precision 337",
    "mleval --alpha 1 --beta 3 --z 2 --closed-form --precision 200",
    "fracint --family genocchi --alpha 4/11 --lambda 5/6 --degree 5 --order 11/7 --at 3/4 --precision 153",
    "fracderiv --family bernoulli --alpha 1/3 --lambda 5/8 --degree 4 --order 1/7 --at 1/3 --precision 488",
    "eval --alpha 1/2 --degree 120 --at 1e30",
)


def test_no_code_sets_mpmath_precision(runner, monkeypatch):
    # every float kernel, the Gauss-Jacobi rule's eigensolver included,
    # passes its precision to libmp: no code creates an mpmath context or
    # sets the precision of one
    from mpmath import MPContext, mp

    prec, init = type(mp).prec, MPContext.__init__
    writes = []

    def watched(ctx, bits):
        writes.append((ctx is mp, bits))
        prec.fset(ctx, bits)

    def created(ctx):
        writes.append("a new context")
        init(ctx)

    clear_caches()
    monkeypatch.setattr(type(mp), "prec", property(prec.fget, watched))
    monkeypatch.setattr(MPContext, "__init__", created)
    r = invoke(runner, "verify", "all", "--format", "json")
    assert r.stdout == (GOLDEN / "verify_all_128.json").read_text()
    for args in FLOAT_CALLS:
        assert invoke(runner, *args.split()).exit_code == 0
    assert not writes


def test_verify_float_alpha_matches_golden(runner):
    # no default grid has a non-integer family alpha: this pins the float
    # family path, where exact values meet float ones in every suite
    r = invoke(runner, "verify", "theorem1", "appell", "theorem3", "genocchi-euler", "--alpha", "1/2")
    assert r.exit_code == 0
    assert r.stdout == (GOLDEN / "verify_alpha_half.txt").read_text()


@pytest.mark.parametrize("precision", ["64", "72"])
def test_verify_ml_consistency_passes_at_low_precision(runner, precision):
    # ml_eval's tolerance scales with the precision, so at 64 bits its own
    # error stays below the fixed order-60 truncation tolerance
    r = invoke(runner, "verify", "ml-consistency", "--precision", precision, "--format", "json")
    assert r.exit_code == 0
    (report,) = json.loads(r.output)
    assert report["verdict"] == "pass"
    assert report["max_rel_err"] <= report["tolerance"]


@pytest.mark.parametrize("suite", ["theorem3", "genocchi-euler"])
def test_verify_float_alpha_passes(runner, suite):
    # a float family alpha makes both routes floats: they get the float
    # tolerance, not the exact one
    r = invoke(runner, "verify", suite, "--alpha", "1/2", "--format", "json")
    assert r.exit_code == 0
    (report,) = json.loads(r.output)
    assert report["verdict"] == "pass"
    assert 0 < report["max_rel_err"] <= report["tolerance"] == 2.0 ** (48 - 128)


def test_verify_exact_comparisons_report_zero_tolerance(runner):
    # at an integer order every coefficient is an exact rational
    r = invoke(runner, "verify", "eq8", "--order", "1", "--format", "json")
    assert r.exit_code == 0
    (report,) = json.loads(r.output)
    assert report["verdict"] == "pass"
    assert report["comparisons"] > 0
    assert report["tolerance"] == 0.0


def test_verify_unknown_suite(runner):
    r = runner.invoke(cli, ["verify", "nonsense-suite"])
    assert r.exit_code == 2
    assert "valid" in r.output


def test_verify_failure_exit_one(runner):
    # an impossible tolerance flips float suites to fail
    r = runner.invoke(cli, ["verify", "eq5", "--tolerance", "1/10000000000000000000000000000000000000000"])
    assert r.exit_code == 1


def test_verify_json_schema(runner):
    r = invoke(runner, "verify", "eq10", "--format", "json")
    rows = json.loads(r.output)
    assert set(rows[0]) == {
        "identity", "params", "comparisons", "max_abs_err", "max_rel_err",
        "tolerance", "verdict",
    }
    assert rows[0]["identity"] == "eq10"
    assert rows[0]["verdict"] == "pass"


def test_verify_theorem2_alias(runner):
    r = invoke(runner, "verify", "theorem2", "--max-degree", "6")
    assert r.exit_code == 0
    assert "appell" in r.output


def test_precision_env_override(runner):
    r = invoke(runner, "mleval", "--alpha", "1", "--beta", "1", "--z", "1",
               env={"FRACPOLY_PRECISION": "64"})
    assert r.exit_code == 0
    val = r.output.strip().splitlines()[1].split()[-1]
    # 64-bit value is shorter than the 128-bit one, and the default
    # tolerance 2^-(64-24) guarantees about 12 digits
    assert len(val) < 30
    assert val.startswith("2.71828182845")


def test_cross_process_determinism():
    import os
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "fracpoly.cli"]
    args = ["numbers", "--family", "euler", "--alpha", "1/2", "--max", "6", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    a = subprocess.run(cmd + args, capture_output=True, check=True, env=env).stdout
    b = subprocess.run(cmd + args, capture_output=True, check=True, env=env).stdout
    assert a == b


def test_run_suite_api_rejects_unknown():
    with pytest.raises(KeyError):
        run_suite("not-a-suite", RunConfig())


@pytest.mark.parametrize("args", [
    ["numbers", "--max", "4", "--precision", "10"],
    ["poly", "--degree", "4", "--precision", "10"],
    ["eval", "--degree", "4", "--at", "1/2", "--precision", "10"],
    ["verify", "specialization", "--lambda", "1"],
    # a value too long to print (Python's 4300-digit int-to-str cap)
    ["eval", "--degree", "2", "--at", "1e3000"],
    # decimal exponents beyond the bound, and precision above the cap
    ["numbers", "--lambda", "1e5000", "--max", "1"],
    ["verify", "specialization", "--lambda", "1e5000"],
    ["numbers", "--alpha", "1e10000000", "--max", "1"],
    ["numbers", "--max", "1", "--precision", "8193"],
    ["verify", "eq5", "--precision", "8193"],
    # a degree above MAX_DEGREE, an order h above MAX_H, a multinomial sum
    # over more than MAX_COMPOSITIONS compositions, a gamma argument above
    # MAX_GAMMA_ARGUMENT; a parameter or an exponent too long to print
    ["numbers", "--lambda", "7/5", "--max", "640"],
    ["verify", "higher-order", "--h", "17"],
    ["verify", "higher-order", "--h", "12"],
    ["mleval", "--alpha", "1/2", "--beta", "1000001/3", "--z", "1"],
    ["eval", "--degree", "0", "--at", "1e4300"],
    ["fracint", "--degree", "2", "--order", "1e-4300"],
    ["mleval", "--alpha", "1", "--z", "1e4300"],
    # grids over the composition bound, refused before any suite runs
    ["verify", "higher-order", "--h", "8", "--max-degree", "11"],
    ["verify", "all", "--max-degree", "55"],
    # precision below the minimum, refused before any tolerance is built
    ["verify", "eq8", "--max-degree", "1", "--precision", "0"],
    ["verify", "all", "--precision", "47"],
])
def test_package_errors_exit_two_without_traceback(runner, args):
    start = time.perf_counter()
    r = runner.invoke(cli, args)
    assert time.perf_counter() - start < 5
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert r.output.startswith("error: ")


def test_lambda_rounding_to_one_prints_numbers_agreeing_with_1024_bits(runner):
    # lambda = 1 + 10^-60 rounds to 1 at 128 bits; each printed number lies
    # within 2^-127 of the 1024-bit one: the numbers are within 2^-128 of
    # it, and the shortest round-trip decimal within half an ulp of them
    args = ["numbers", "--alpha", "1/2", "--lambda", "1." + "0" * 59 + "1", "--max", "3"]
    got, want = ([Fraction(row.split()[1]) for row in invoke(runner, *args, *extra).stdout.splitlines()[1:]]
                 for extra in ((), ("--precision", "1024")))
    assert len(got) == len(want) == 4 and got[0] == want[0] == 0
    assert all(abs(g - w) <= abs(w) / 2 ** 127 for g, w in zip(got[1:], want[1:]))


def test_specialization_refuses_lambda_one(runner):
    r = runner.invoke(cli, ["verify", "specialization", "--lambda", "1"])
    assert r.exit_code == 2
    assert "pole at lambda = 1" in r.output


@pytest.mark.parametrize("args", [
    ["theorem4", "--max-degree", "0"],
    ["eq8", "--max-degree", "0"],
])
def test_verify_refuses_grid_without_comparisons(runner, args):
    r = runner.invoke(cli, ["verify", *args])
    assert r.exit_code == 2
    assert r.output.startswith(f"error: suite {args[0]} makes no comparison")


def test_verify_higher_order_below_h_at_lambda_one(runner):
    r = invoke(runner, "verify", "higher-order", "--lambda", "1", "--h", "5", "--max-degree", "3",
               "--format", "json")
    assert r.exit_code == 0
    (report,) = json.loads(r.output)
    assert report["verdict"] == "pass"
    assert report["comparisons"] == 4


def test_check_grids_refuses_exactly_the_grids_over_the_composition_bound():
    # 19448 compositions of 10 into 8 parts are under the bound of 30000,
    # 31824 of 11 are over it; theorem5 sums up to index max_degree - ceil(order)
    check_grids(["higher-order"], RunConfig(h=8, max_degree=10))
    check_grids(["theorem5"], RunConfig(h=8, max_degree=11))
    with pytest.raises(DomainError, match="of 11 into 8 parts"):
        check_grids(["higher-order"], RunConfig(h=8, max_degree=11))
    with pytest.raises(DomainError, match="of 11 into 8 parts"):
        check_grids(["theorem5"], RunConfig(h=8, max_degree=12))
    # at order 5/2 alone the sums start at degree ceil(5/2) = 3
    check_grids(["theorem5"], RunConfig(h=8, max_degree=13, orders=(Fraction(5, 2),)))
    with pytest.raises(DomainError, match="of 11 into 8 parts"):
        check_grids(["theorem5"], RunConfig(h=8, max_degree=14, orders=(Fraction(5, 2),)))


@pytest.mark.parametrize("args, flag", [
    (["theorem6-literal", "--order", "1"], "--order"),
    (["eq5", "--lambda", "2"], "--lambda"),
])
def test_verify_refuses_flag_no_selected_suite_reads(runner, args, flag):
    r = runner.invoke(cli, ["verify", *args])
    assert r.exit_code == 2
    assert r.output == f"error: no selected suite reads {flag}\n"


def test_verify_accepts_flag_some_selected_suite_reads(runner):
    assert unread_fields(list(SUITES), RunConfig(lam=Fraction(2))) == []
    r = invoke(runner, "verify", "all", "--lambda", "2", "--max-degree", "1")
    assert r.exit_code == 0


@pytest.mark.parametrize("z", ["-5", "-50"])
def test_mleval_unsettled_series_exits_two_at_once(runner, z):
    start = time.monotonic()
    r = runner.invoke(cli, ["mleval", "--alpha", "1/10", "--z", z])
    assert time.monotonic() - start < 5
    assert r.exit_code == 2
    assert r.output.startswith("error: series cannot settle within 100000 terms")


def test_cli_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    code = ("import sys, fracpoly.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         text=True, env=env).stdout
    assert out.strip() == "[]"


def test_verify_rejects_negative_tolerance(runner):
    from fracpoly.errors import DomainError

    r = runner.invoke(cli, ["verify", "--tolerance", "-1", "theorem1"])
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output == "error: tolerance must be nonnegative, got -1\n"
    with pytest.raises(DomainError):
        run_suite("theorem1", RunConfig(tolerance=Fraction(-1, 10**30)))


def test_verify_zero_tolerance_passes_exact_suite(runner):
    r = invoke(runner, "verify", "--tolerance", "0", "theorem1", "--max-degree", "4", "--format", "json")
    assert r.exit_code == 0
    (report,) = json.loads(r.output)
    assert report["verdict"] == "pass"
    assert report["tolerance"] == 0.0


def test_precision_env_above_cap_exits_two(runner):
    r = runner.invoke(cli, ["numbers", "--max", "1"], env={"FRACPOLY_PRECISION": "8193"})
    assert r.exit_code == 2
    assert r.output.startswith("error: precision must be an integer from 64 to 8192 bits")


def test_precision_env_error_names_the_variable(runner):
    r = runner.invoke(cli, ["numbers", "--max", "2"], env={"FRACPOLY_PRECISION": "many"})
    assert r.exit_code == 2
    assert "FRACPOLY_PRECISION" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("args, flag", [
    (["numbers", "--max", "-1"], "--max"),
    (["poly", "--degree", "-1"], "--degree"),
    (["eval", "--degree", "-1", "--at", "1"], "--degree"),
    (["fracderiv", "--degree", "-1", "--order", "1/2"], "--degree"),
    (["fracint", "--degree", "-1", "--order", "1/2"], "--degree"),
])
def test_negative_degree_or_max_exits_two(runner, args, flag):
    r = runner.invoke(cli, args)
    assert r.exit_code == 2
    assert f"Invalid value for '{flag}'" in r.output


def test_help_shows_precision_variable_and_ranges(runner):
    for cmd in ("numbers", "poly", "eval", "fracderiv", "fracint"):
        out = " ".join(invoke(runner, cmd, "--help").output.split())
        assert "env var: FRACPOLY_PRECISION" in out
        assert "x>=0" in out


@pytest.mark.parametrize("name", ["eval_frac_expansion", "caputo_quadrature_points"])
def test_closed_form_suites_catch_a_relative_error_of_2_to_the_minus_40(monkeypatch, name):
    # 128-bit arithmetic leaves errors near 2^-100, so either route of the
    # oracle comparison biased by (1 + 2^-40) must fail
    real = getattr(verify, name)

    def biased(*args):
        v, precision = real(*args), args[-1]  # the suites pass the precision last
        with working_precision(precision):
            factor = fraction_to_mpf(1 + Fraction(1, 2 ** 40), precision)
            return [x * factor for x in v] if isinstance(v, list) else v * factor

    clear_caches()  # a held route would hide the biased one
    monkeypatch.setattr(verify, name, biased)
    try:
        report = run_suite("theorem4", RunConfig(lam=Fraction(2), orders=(Fraction(1, 2),), max_degree=3))
    finally:
        clear_caches()  # and must not outlive the bias
    assert report.verdict == "fail"
    assert report.tolerance < 2.0 ** -40


# Exit-code fuzz over argument vectors of every subcommand: numbers draw
# from valid values and edge strings, precision stays at or below 512 bits
# (plus invalid values on both sides of the accepted range), degrees at or
# below 6, and verify runs named suites up to degree 2, to bound the time.
_EDGES = ("0", "-1", "1/0", "nan", "1e5000", "abc")
_PRECISIONS = ("0", "47", "63", "64", "72", "96", "128", "200", "333", "512", "8193", "x")
_FAMILIES = ("bernoulli", "euler", "genocchi")
_H = ("1", "2", "0", "17", "x")


@st.composite
def _argv(draw, cmd):
    def pick(*values):
        return draw(st.sampled_from(values))

    def number(*valid):  # an edge string in one draw of four
        return pick(*_EDGES) if draw(st.integers(0, 3)) == 3 else pick(*valid)

    args = [cmd, "--precision", pick(*_PRECISIONS)]

    def maybe(flag, value, *values):  # each optional flag in one call of three
        if draw(st.integers(0, 2)) == 2:
            args.extend([flag, value(*values)])

    if cmd == "mleval":
        args += ["--alpha", number("1", "1/2", "3/2"), "--z", number("1/2", "-1", "2", "-7/3", "5")]
        maybe("--beta", number, "1", "2", "3", "1/3")
        maybe("--tol", number, "1e-10", "1e-30")
        if draw(st.booleans()):
            args.append("--closed-form")
    elif cmd == "verify":
        args += draw(st.lists(st.sampled_from(sorted(SUITES)), min_size=1, max_size=2, unique=True))
        args += ["--max-degree", pick("0", "1", "2")]
        maybe("--family", pick, *_FAMILIES)
        maybe("--alpha", number, "1", "1/2", "2")
        maybe("--lambda", number, "1", "2", "1/2")
        maybe("--h", pick, *_H)
        maybe("--order", number, "1/2", "3/2", "1")
        maybe("--tolerance", number, "1e-20")
    else:
        args += ["--max" if cmd == "numbers" else "--degree", number("1", "3", "6")]
        maybe("--family", pick, *_FAMILIES)
        maybe("--alpha", number, "1", "1/2", "2")
        maybe("--lambda", number, "1", "2", "7/5")
        maybe("--h", pick, *_H)
        if cmd in ("fracderiv", "fracint"):
            args += ["--order", number("1/2", "3/2", "1", "3/10")]
            maybe("--at", number, "1/2", "2")
        if cmd == "eval":
            args += ["--at", number("1/2", "-1", "3")]
    maybe("--format", pick, "text", "csv", "json")
    return args


@pytest.mark.parametrize("cmd", ["numbers", "poly", "eval", "mleval", "fracderiv", "fracint", "verify"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_fuzz(cmd, data):
    args = data.draw(_argv(cmd))
    start = time.perf_counter()
    r = CliRunner().invoke(cli, args)
    # every drawn call is bounded: one that ran away would hang the CLI
    assert time.perf_counter() - start < 10, args
    assert r.exit_code in (0, 1, 2), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    if r.exit_code == 1:
        assert args[0] == "verify" and "suite(s) failed" in r.output


def test_exact_tolerance_fails_an_error_of_ten_to_the_minus_60(monkeypatch):
    # the equal-exact fast path of the bookkeeping must not hide an
    # unequal exact pair: one coefficient of the e^{xz} lift is off by 10^-60
    from fracpoly.series import TruncatedSeries

    real = verify.cauchy_product
    calls = []

    def off(a, b):
        c = real(a, b)
        calls.append(c.precision is None)
        if not calls[-1]:
            return c
        values = list(c)
        values[-1] += Fraction(1, 10**60)
        return TruncatedSeries(values)

    monkeypatch.setattr(verify, "cauchy_product", off)
    grid = dict(family="bernoulli", alpha=Fraction(1), lam=Fraction(2), max_degree=4)
    for tolerance in (None, Fraction(0)):
        calls.clear()
        report = run_suite("theorem1", RunConfig(tolerance=tolerance, **grid))
        assert calls and all(calls)  # the mutation reached every exact lift
        assert report.verdict == "fail"
        assert report.tolerance == 0.0 and report.max_rel_err > 0


def reference_check(pairs, override):
    """The comparison bookkeeping with every pair through Fraction arithmetic."""
    comparisons = failures = 0
    max_abs = max_rel = Fraction(0)
    max_tol = Fraction(0) if override is None else override
    for got, want, float_tol in pairs:
        exact = [isinstance(v, (int, Fraction)) for v in (got, want)]
        if override is not None:
            tol = override
        else:
            tol = Fraction(0) if all(exact) else float_tol
        a, b = [Fraction(v) if e else mpf_to_fraction(v) for v, e in zip((got, want), exact)]
        abs_err = abs(a - b)
        rel_err = abs_err / max(Fraction(1), abs(a), abs(b))
        comparisons += 1
        max_abs, max_rel, max_tol = max(max_abs, abs_err), max(max_rel, rel_err), max(max_tol, tol)
        failures += rel_err > tol
    return comparisons, failures, max_abs, max_rel, max_tol


@pytest.mark.parametrize("override", [None, Fraction(0), Fraction(1, 10**20)])
def test_check_bookkeeping_matches_fraction_arithmetic(override):
    # raw values, as the suites yield them: ints and Fractions are exact,
    # mpfs are floats; the runner turns each pair into integer-pair entries
    tiny = Fraction(1, 10**60)
    float_tol = Fraction(1, 2**100)
    pairs = [
        (Fraction(3, 7), Fraction(3, 7)), (0, Fraction(0)), (5, 5), (-2, Fraction(-2)),
        (Fraction(1, 3), Fraction(1, 3) + tiny), (7, 8), (Fraction(0), tiny),
        (Fraction(1, 2), fraction_to_mpf(Fraction(1, 2), 128)), (Fraction(1, 3), fraction_to_mpf(Fraction(1, 3), 128)),
        (fraction_to_mpf(Fraction(2, 3), 96), fraction_to_mpf(Fraction(2, 3), 96)),
        (fraction_to_mpf(Fraction(2, 3), 96), fraction_to_mpf(Fraction(2, 3), 128)),
        (fraction_to_mpf(Fraction(0), 96), 0), (Fraction(9, 4), Fraction(9, 4)),
        # floats on both sides, with different exponents and signs, and a zero
        (fraction_to_mpf(Fraction(-5, 3), 128), fraction_to_mpf(Fraction(-5, 3), 64)),
        (fraction_to_mpf(Fraction(7, 3) * 2 ** 70, 96), fraction_to_mpf(Fraction(-7, 3) * 2 ** 70, 128)),
        (fraction_to_mpf(Fraction(1, 3 * 2 ** 80), 128), fraction_to_mpf(Fraction(1, 5), 128)),
        (fraction_to_mpf(Fraction(0), 128), fraction_to_mpf(Fraction(-1, 7), 128)),
        (fraction_to_mpf(Fraction(3, 2 ** 90), 128), fraction_to_mpf(Fraction(0), 64)),
        # an int against a float
        (3, fraction_to_mpf(Fraction(3) + Fraction(1, 2 ** 100), 128)), (-2 ** 70, fraction_to_mpf(Fraction(1, 3), 96)),
        (fraction_to_mpf(Fraction(-9, 7), 128), 1),
    ]
    check = verify._Check(override)
    for got, want in pairs:
        for a, b in verify._compared(got, want):
            check.values(a, b, float_tol)
    want = reference_check([(g, w, float_tol) for g, w in pairs], override)
    assert (check.comparisons, check.failures, check.max_abs, check.max_rel, check.max_tol) == want
    assert want[1] > 0  # the list holds failing pairs, so the maxima moved


@pytest.mark.parametrize("name, suite", [("_rgamma", "eq5"), ("_gamma_positive", "eq10")])
def test_gamma_route_biased_by_2_to_the_minus_40_fails_at_128_bits(monkeypatch, name, suite):
    # 128-bit gamma is good to about 2^-120, so a (1 + 2^-40) factor on
    # either gamma route must flip a suite to fail.  The same check at 64
    # bits waits for tolerances from an error budget (ROADMAP): the
    # identity class 2^(48-p) is 2^-16 there and passes this error.
    from mpmath import libmp

    import fracpoly.gammafns as gammafns
    import fracpoly.mittag as mittag

    real = getattr(gammafns, name)

    def biased(*args):  # each route takes the working precision last
        wp, rnd = args[-1], libmp.round_nearest
        return libmp.mpf_mul(real(*args), libmp.from_rational(2 ** 40 + 1, 2 ** 40, wp, rnd), wp, rnd)

    assert run_suite(suite, RunConfig(precision=128)).verdict == "pass"
    clear_caches()
    monkeypatch.setattr(gammafns, name, biased)
    if hasattr(mittag, name):  # mittag binds _rgamma by name at import
        monkeypatch.setattr(mittag, name, biased)
    try:
        assert run_suite(suite, RunConfig(precision=128)).verdict == "fail"
    finally:
        clear_caches()
