"""Seeded request generators for the three benchmark workloads.

A workload pass is a list of requests.  Each request is a dict with the
CLI argument vector (``args``), the parameters the output check needs
(``check``), and ``expect``: ``"ok"`` for a regular request, or the name of
a known defect (see ``DEFECTS``) whose contract outcome is not met yet.

The request workloads are stratified: the slot table (command, family
kind, size, precision, alpha class, order class) and the order of the slots
are fixed, and the seed draws only the fine parameters (lambda, evaluation
point, and alpha and order inside their classes).  The kind is fixed
because a Genocchi request can cost half again as much as a Bernoulli one.
The cost of a pass then hardly depends on the seed, so runs with different
seeds are comparable while their inputs still differ.
Order and precisions are fixed because mpmath keeps constants computed at
the highest precision seen so far, so a request's cost depends on the
precisions of the requests that ran before it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

KINDS = ("bernoulli", "euler", "genocchi")

# Known defects (ROADMAP item 4): the contract outcome (exit code, and for
# verify the verdict) that the fix must produce.
DEFECTS = {
    "precision-below-minimum": {"exit": 2},
    "theorem3-float-alpha": {"exit": 0, "verdict": "pass"},
    "specialization-lambda-1": {"exit": 2},
}

def _ratio(rng: random.Random, lo: Fraction, hi: Fraction, qmax: int, integer_ok: bool = False) -> Fraction:
    """A random rational in [lo, hi] with denominator at most qmax."""
    while True:
        q = rng.randint(1 if integer_ok else 2, qmax)
        p = rng.randint(int(lo * q) - 1, int(hi * q) + 1)
        v = Fraction(p, q)
        if lo <= v <= hi and (integer_ok or v.denominator != 1):
            return v


def _lam(rng: random.Random) -> Fraction:
    """p/q with p != q in 5..9, so every lambda has about the same size."""
    while True:
        p, q = rng.randint(5, 9), rng.randint(5, 9)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def _family_args(kind, alpha, lam, h) -> list[str]:
    return ["--family", kind, "--alpha", str(alpha), "--lambda", str(lam), "--h", str(h)]


def _family_request(cmd: str, kind: str, alpha, lam, h: int, n: int, precision=None, x=None) -> dict:
    args = [cmd] + _family_args(kind, alpha, lam, h)
    args += ["--max", str(n)] if cmd == "numbers" else ["--degree", str(n)]
    if x is not None:
        args += ["--at", str(x)]
    if precision is not None:
        args += ["--precision", str(precision)]
    args += ["--format", "json"]
    check = {"kind": kind, "alpha": str(alpha), "lam": str(lam), "h": h, "n": n,
             "precision": precision, "x": None if x is None else str(x)}
    return {"cmd": cmd, "args": args, "check": check, "expect": "ok"}


def verify_all(seed: int) -> list[dict]:
    """One `verify all` at the default 128 bits; its input does not depend on the seed."""
    del seed
    return [{"cmd": "verify-all", "args": ["verify", "all", "--format", "json"], "check": {}, "expect": "ok"}]


EXACT_SLOTS = 50


def exact_tables(seed: int) -> list[dict]:
    """numbers/poly/eval at integer alpha 1..3, rational lambda, N from 20 to 160."""
    rng = random.Random(seed)
    reqs = []
    for i in range(EXACT_SLOTS):
        # a request costs about N^2.2, so N grows with the square of the slot:
        # a pass stays short enough for several passes in a run, and the
        # largest orders still carry most of its time
        n = 20 + (140 * i * i) // (EXACT_SLOTS - 1) ** 2
        cmd = ("numbers", "poly", "eval")[i % 3]
        alpha = 1 + (i // 3) % 3
        # h >= 2 is defined for the Bernoulli kind at alpha = 1 only
        h = 1 + (i // 9) % 3 if alpha == 1 else 1
        kind = "bernoulli" if h > 1 else KINDS[(i + i // 3) % 3]
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if cmd == "eval" else None
        reqs.append(_family_request(cmd, kind, alpha, _lam(rng), h, n, x=x))
    for cmd in ("numbers", "poly", "eval"):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if cmd == "eval" else None
        r = _family_request(cmd, rng.choice(KINDS), rng.randint(1, 3), _lam(rng), 1,
                            rng.randint(4, 10), precision=10, x=x)
        r["expect"] = "precision-below-minimum"
        reqs.append(r)
    return _fixed_order(reqs)


def _fixed_order(reqs: list[dict]) -> list[dict]:
    random.Random(0).shuffle(reqs)  # the same slot order for every seed
    return reqs


def _precision(band: int, slot: int) -> int:
    """A precision in band 0..7 of 48 bits each (128..511), distinct per slot."""
    return 128 + 48 * (band % 8) + (29 * slot) % 48


# rule builds dominate a pass: four of them keep a pass short enough for
# several passes in a run, and the degree-24 build stays above p90, so
# that p90 falls among the requests of 200 to 300 ms
FRACDERIV_DEGREES = (4, 8, 12, 24)


def _prime_ratio(rng: random.Random, lo: Fraction, hi: Fraction, q: int) -> Fraction:
    """A non-integer in [lo, hi] over the prime q (11 or 13), so that
    alpha*n + beta almost never lands on an integer, where gamma takes the
    cheap factorial path."""
    p = rng.choice([p for p in range(int(lo * q), int(hi * q) + 1) if p % q and lo <= Fraction(p, q) <= hi])
    return Fraction(p, q)


# the alpha class of a slot; the seed draws alpha inside it
ALPHA_BANDS = ((Fraction(1, 3), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)))


def _float_alpha(rng: random.Random, slot: int) -> Fraction:
    lo, hi = ALPHA_BANDS[slot % 3]
    return _prime_ratio(rng, lo, hi, (11, 13)[slot // 3 % 2])


def float_requests(seed: int) -> list[dict]:
    """Float-domain requests at 128..511 bits whose gamma and rule keys rarely repeat."""
    rng = random.Random(seed)
    reqs = []
    for c, cmd in enumerate(("numbers", "poly", "eval")):
        for i in range(8):
            n = 6 + (18 * i) // 7
            x = _ratio(rng, Fraction(-3), Fraction(3), 9, integer_ok=True) if cmd == "eval" else None
            reqs.append(_family_request(cmd, KINDS[(i + c) % 3], _float_alpha(rng, i + 2 * c), _lam(rng), 1, n,
                                        precision=_precision(3 * i + c, 8 * c + i), x=x))
    fracint_slot = 24 + len(FRACDERIV_DEGREES)
    mleval_slot = fracint_slot + 8
    for cmd, slots, first_slot in (("fracderiv", len(FRACDERIV_DEGREES), 24), ("fracint", 8, fracint_slot)):
        for i in range(slots):
            degree = FRACDERIV_DEGREES[i] if cmd == "fracderiv" else 2 + (22 * i) // (slots - 1)
            n = 1 + i % min(degree, 3)  # ceil(order): the derivative order class
            # a fixed denominator: halves and thirds make cheaper gamma arguments
            order = n - Fraction(rng.randint(1, 6), 7)
            t = _ratio(rng, Fraction(1, 10), Fraction(2), 9, integer_ok=True)
            if cmd == "fracderiv":
                # the O(nodes^3) rule build dominates: fewer bits at more nodes
                # keeps the cost ramp of the latency tail smooth
                alpha, precision = 1, _precision(7 - 8 * i // slots, first_slot + i)
            else:
                alpha = 1 if i % 2 == 0 else _float_alpha(rng, i // 2)
                precision = _precision(5 * i + 3, first_slot + i)
            kind, lam = KINDS[(i + first_slot) % 3], _lam(rng)
            args = [cmd] + _family_args(kind, alpha, lam, 1)
            args += ["--degree", str(degree), "--order", str(order), "--at", str(t),
                     "--precision", str(precision), "--format", "json"]
            check = {"kind": kind, "alpha": str(alpha), "lam": str(lam), "h": 1, "n": degree,
                     "order": str(order), "t": str(t), "precision": precision}
            reqs.append({"cmd": cmd, "args": args, "check": check, "expect": "ok"})
    for i in range(8):
        z = Fraction(1 + i // 2, 2) + Fraction(rng.randrange(4), 16)
        if i % 2 == 0:
            # alpha < 1 stays at z > 0: negative z there waits for the
            # bounded-time fix of ROADMAP item 4 (see README.md)
            alpha = _prime_ratio(rng, Fraction(7, 10), Fraction(4, 5), (11, 13)[i // 2 % 2])
        else:
            alpha = _prime_ratio(rng, Fraction(7, 5), Fraction(8, 5), (11, 13)[i // 2 % 2])
            z *= rng.choice((-1, 1))
        # narrow alpha and beta bands: the number of terms summed sets the cost
        beta = 1 + Fraction(rng.randint(1, 4), 5)
        precision = _precision(3 * i + 1, mleval_slot + i)
        args = ["mleval", "--alpha", str(alpha), "--beta", str(beta), "--z", str(z),
                "--precision", str(precision), "--format", "json"]
        check = {"alpha": str(alpha), "beta": str(beta), "z": str(z), "precision": precision}
        reqs.append({"cmd": "mleval", "args": args, "check": check, "expect": "ok"})
    reqs.append({"cmd": "verify", "args": ["verify", "theorem3", "--alpha", "1/2", "--format", "json"],
                 "check": {}, "expect": "theorem3-float-alpha"})
    reqs.append({"cmd": "verify", "args": ["verify", "specialization", "--lambda", "1", "--format", "json"],
                 "check": {}, "expect": "specialization-lambda-1"})
    return _fixed_order(reqs)


WORKLOADS = {
    "verify-all": verify_all,
    "exact-tables": exact_tables,
    "float-requests": float_requests,
}
