"""Output checks against references that share no code with fracpoly.

Exact family numbers are checked by multiplying them back against the
generating denominator lambda*E_alpha(z) -+ 1, whose coefficients are
1/(alpha n)! in plain ``Fraction`` arithmetic.  Float outputs are checked
against references built with mpmath's own gamma at 64 extra bits, with the
verifier's relative error |got - want| / max(1, |got|, |want|).  ``check``
gives one entry per operation: None when it succeeded, else the reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
from mpmath import mp

from workloads import DEFECTS

GUARD_BITS = 64
SUITE_COUNT = 17


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


# README tolerances: quadrature cross-check 1e-10, Mittag-Leffler evaluation
# 1e-12, float identities 2^(48 - precision)
def _float_tol(precision: int):
    return mp.mpf(2) ** (48 - precision)


def _float_check(what: str, got: str, want, tol) -> str | None:
    """Compare a printed float with a reference at the current (raised) precision."""
    g = mp.mpf(got)
    err = abs(g - want) / max(1, abs(g), abs(want))
    return None if err <= tol else f"{what} off by {mpmath.nstr(err, 3)} > {mpmath.nstr(tol, 3)}"


# -- references from the generating function ------------------------------


def _generator(c: dict, n: int, exact: bool):
    """Denominator and numerator coefficients 0..n: Fractions, or mpfs at mp.prec."""
    alpha, lam = Fraction(c["alpha"]), Fraction(c["lam"])
    if exact:
        den = [lam / math.factorial(int(alpha) * j) for j in range(n + 1)]
        zero = Fraction(0)
    else:
        a, lm = _mpf(alpha), _mpf(lam)
        den = [lm * mpmath.rgamma(a * j + 1) for j in range(n + 1)]
        zero = mp.mpf(0)
    den[0] += -1 if c["kind"] == "bernoulli" else 1
    num = [zero] * (n + 1)
    num[0 if c["kind"] == "euler" else 1] += 1 if c["kind"] == "bernoulli" else 2
    return den, num


def _convolve(a, b, n):
    if isinstance(a[0], Fraction):
        # integer numerators over one common denominator per factor
        da = math.lcm(*(v.denominator for v in a[:n + 1]))
        db = math.lcm(*(v.denominator for v in b[:n + 1]))
        ai = [v.numerator * (da // v.denominator) for v in a[:n + 1]]
        bi = [v.numerator * (db // v.denominator) for v in b[:n + 1]]
        return [Fraction(sum(ai[j] * bi[k - j] for j in range(k + 1)), da * db) for k in range(n + 1)]
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]


def _power(a, h: int, n: int):
    out = a
    for _ in range(h - 1):
        out = _convolve(out, a, n)
    return out


def exact_multiply_back(c: dict, numbers: list[Fraction]) -> str | None:
    """(lambda*E_alpha -+ 1)^h * sum B_k z^k/k! must equal numerator^h through z^n."""
    n, h = c["n"], c["h"]
    den, num = _generator(c, n, exact=True)
    ordinary = [b / math.factorial(k) for k, b in enumerate(numbers)]
    lhs = _convolve(_power(den, h, n), ordinary, n)
    rhs = _power(num, h, n)
    for k in range(n + 1):
        if lhs[k] != rhs[k]:
            return f"multiply-back fails at z^{k}"
    return None


def reference_numbers(c: dict, exact: bool) -> list:
    """Family numbers 0..n by solving den * b = num (then b^h)."""
    n = c["n"]
    den, num = _generator(c, n + 1, exact)
    if den[0] == 0:  # valuation 1 (Bernoulli at lambda = 1): divide both by z
        den, num = den[1:], num[1:]
    b = []
    for k in range(n + 1):
        b.append((num[k] - sum(den[j] * b[k - j] for j in range(1, k + 1))) / den[0])
    return [v * math.factorial(k) for k, v in enumerate(_power(b, c["h"], n))]


def reference_poly(c: dict, exact: bool) -> list:
    """Ascending coefficients of the degree-n family polynomial."""
    n = c["n"]
    nums = reference_numbers(c, exact)
    return [math.comb(n, j) * nums[n - j] for j in range(n + 1)]


# -- per-command checks ---------------------------------------------------


def _check_family(cmd: str, c: dict, stdout: str) -> str | None:
    n = c["n"]
    rows = json.loads(stdout)
    if cmd == "eval":
        values = [rows[0]["value"]]
    else:
        key, field = ("index", "value") if cmd == "numbers" else ("power", "coefficient")
        if [r[key] for r in rows] != list(range(n + 1)):
            return f"{cmd} rows are not {key} 0..{n}"
        values = [r[field] for r in rows]
    if Fraction(c["alpha"]).denominator == 1:
        if cmd == "eval":
            x = Fraction(c["x"])
            want = sum(cj * x ** j for j, cj in enumerate(reference_poly(c, exact=True)))
            return None if Fraction(values[0]) == want else "eval differs from the rebuilt polynomial"
        nums = [Fraction(v) for v in values]
        if cmd == "poly":
            nums = [nums[n - k] / math.comb(n, k) for k in range(n + 1)]
        return exact_multiply_back(c, nums)
    precision = c["precision"]
    with mp.workprec(precision + GUARD_BITS):
        if cmd == "numbers":
            want = reference_numbers(c, exact=False)
        else:
            want = reference_poly(c, exact=False)
            if cmd == "eval":
                x = _mpf(Fraction(c["x"]))
                want = [mp.fsum(cj * x ** j for j, cj in enumerate(want))]
        for k, (got, ref) in enumerate(zip(values, want)):
            reason = _float_check(f"{cmd} value {k}", got, ref, _float_tol(precision))
            if reason is not None:
                return reason
    return None


def _check_fracint(c: dict, stdout: str) -> str | None:
    got = json.loads(stdout)["values"]["closed-form"]
    with mp.workprec(c["precision"] + GUARD_BITS):
        a, t = _mpf(Fraction(c["order"])), _mpf(Fraction(c["t"]))
        # RL integral of t^j of order a: gamma(j+1)/gamma(j+a+1) t^(j+a)
        want = mp.fsum(cj * mpmath.gamma(j + 1) * mpmath.rgamma(j + a + 1) * t ** (j + a)
                       for j, cj in enumerate(reference_poly(c, exact=False)))
        return _float_check("fracint value", got, want, _float_tol(c["precision"]))


def _check_fracderiv(c: dict, stdout: str) -> str | None:
    values = json.loads(stdout)["values"]
    with mp.workprec(c["precision"] + GUARD_BITS):
        return _float_check("closed form against quadrature", values["closed-form"],
                            mp.mpf(values["quadrature"]), mp.mpf(10) ** -10)


def _check_mleval(c: dict, stdout: str) -> str | None:
    got = json.loads(stdout)[0]["value"]
    wp = c["precision"] + GUARD_BITS
    with mp.workprec(wp):
        am, bm, zm = (_mpf(Fraction(c[k])) for k in ("alpha", "beta", "z"))
        total, n, eps = mp.mpf(0), 0, mp.mpf(2) ** -wp
        while True:
            term = zm ** n * mpmath.rgamma(am * n + bm)
            total += term
            # past the peak near n = |z|^(1/alpha) the terms shrink monotonically
            if n > 2 * abs(zm) ** (1 / am) + 8 and abs(term) < eps * max(1, abs(total)):
                break
            n += 1
        return _float_check("mleval value", got, total, max(mp.mpf(10) ** -12, _float_tol(c["precision"])))


def _check_verify_all(stdout: str) -> list[str | None]:
    out = []
    for r in json.loads(stdout):
        want = "known-discrepancy" if r["identity"].endswith("-literal") else "pass"
        out.append(None if r["verdict"] == want else f"{r['identity']}: verdict {r['verdict']}, want {want}")
    if len(out) != SUITE_COUNT:
        return [f"{len(out)} suite reports, want {SUITE_COUNT}"] * SUITE_COUNT
    return out


def _check_defect(expect: str, result: dict) -> str | None:
    want = DEFECTS[expect]
    if result["exit"] != want["exit"]:
        return f"exit {result['exit']}, want {want['exit']}"
    if "verdict" in want:
        verdicts = {r["verdict"] for r in json.loads(result["stdout"])}
        if verdicts != {want["verdict"]}:
            return f"verdicts {sorted(verdicts)}, want {want['verdict']}"
    return None


CHECKS = {
    "numbers": lambda c, out: _check_family("numbers", c, out),
    "poly": lambda c, out: _check_family("poly", c, out),
    "eval": lambda c, out: _check_family("eval", c, out),
    "fracint": _check_fracint,
    "fracderiv": _check_fracderiv,
    "mleval": _check_mleval,
}


def check(req: dict, result: dict) -> list[str | None]:
    """One entry per operation of the request: None if it succeeded, else why not."""
    ops = SUITE_COUNT if req["cmd"] == "verify-all" else 1
    if result["crash"]:
        reasons = [f"traceback: {result['crash']}"] * ops
    elif "Traceback" in result["stderr"]:
        reasons = ["traceback on stderr"] * ops
    else:
        try:
            if req["expect"] != "ok":
                reasons = [_check_defect(req["expect"], result)]
            elif result["exit"] != 0:
                reasons = [f"exit {result['exit']}: {result['stderr'].strip()[:200]}"] * ops
            elif req["cmd"] == "verify-all":
                reasons = _check_verify_all(result["stdout"])
            else:
                reasons = [CHECKS[req["cmd"]](req["check"], result["stdout"])]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reasons = [f"unreadable output: {type(exc).__name__}: {exc}"] * ops
    if req["expect"] != "ok":
        reasons = [None if r is None else f"known defect {req['expect']}: {r}" for r in reasons]
    return reasons
