"""Gauss-Jacobi rules with the endpoint singularity folded into the weight.

Rules integrate (1-u)^a * poly(u) over [-1, 1] exactly for polynomial
degree <= 2Q - 1.  They are built by the Golub-Welsch method (Math. Comp.
23, 1969): the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the weight's three-term recurrence, and the weights are the
squared first eigenvector components times the weight's total mass.  The
matrix and the implicit QL iteration (EISPACK's imtql2, as mpmath's
``tridiag_eigen`` has it) run on libmp tuples 32 bits above the requested
precision, operation for operation as ``gauss_quadrature(n, "jacobi", a, 0)``
of an mpmath context at that precision, so a rule is mpmath's bit for bit;
no mpmath context is created or written.  Each rule is checked before it is
handed out: its weights must add up to the mass 2^(a+1)/(a+1), and its
nodes must increase strictly inside (-1, 1).  A QL iteration that takes
more than mpmath's limit of sweeps for one eigenvalue raises
ToleranceUnreachable.  A memo of 128 rules sits under the oracle's set-up
memo in :mod:`fracpoly.fractional`: orders of one a, such as 1/2, 3/2 and
5/2 (a = -1/2), share their rules.

Everything here deliberately leans on libmp's arithmetic and mpmath's own
gamma, so the quadrature route shares no code with the package's Spouge
gamma or series machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import libmp, mp
from mpmath.libmp import (fone, fzero, from_int, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_hypot, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_rdiv_int, mpf_shift, mpf_sqrt, mpf_sub)

from .errors import DomainError, ToleranceUnreachable
from .scalars import _PREC_LOCK

__all__ = ["gauss_jacobi_rule"]

RND = libmp.round_nearest
# QL sweeps allowed for one eigenvalue, per decimal digit of the working
# precision, as in mpmath's tridiag_eigen
SWEEPS_PER_DIGIT = 2


def _jacobi_matrix(alpha: tuple, n: int, wp: int):
    """(d, e, w, mass): the diagonal and off-diagonal of the Jacobi matrix of
    (1-u)^alpha, formed as mpmath's gauss_quadrature forms them with beta =
    0, less the steps that beta = 0 makes exact (adding 0, multiplying by 1
    or gamma(1)); the weight scale w = 2^(alpha+1) gamma(alpha+1) /
    gamma(alpha+2) as it forms it; and the mass 2^(alpha+1)/(alpha+1)."""
    two, alpha1 = from_int(2), mpf_add(alpha, fone, wp, RND)
    abi = mpf_add(alpha, two, wp, RND)
    with _PREC_LOCK:  # mpmath's constant memos
        power = libmp.mpf_pow(two, alpha1, wp, RND)
        gamma1, gamma2 = libmp.mpf_gamma(alpha1, wp, RND), libmp.mpf_gamma(abi, wp, RND)
    w = mpf_div(mpf_mul(power, gamma1, wp, RND), gamma2, wp, RND)
    d = [mpf_div(libmp.mpf_neg(alpha), abi, wp, RND)]
    den = mpf_mul(mpf_add(abi, fone, wp, RND), mpf_mul(abi, abi, wp, RND), wp, RND)
    e = [mpf_sqrt(mpf_div(mpf_mul_int(alpha1, 4, wp, RND), den, wp, RND), wp, RND)]
    a2b2 = libmp.mpf_neg(mpf_mul(alpha, alpha, wp, RND))
    for j in range(2, n + 1):
        abi, alpha_j = mpf_add(alpha, from_int(2 * j), wp, RND), mpf_add(alpha, from_int(j), wp, RND)
        d.append(mpf_div(a2b2, mpf_mul(mpf_sub(abi, two, wp, RND), abi, wp, RND), wp, RND))
        num = mpf_mul(mpf_mul_int(mpf_mul_int(alpha_j, 4 * j, wp, RND), j, wp, RND), alpha_j, wp, RND)
        den = mpf_mul(mpf_sub(mpf_mul(abi, abi, wp, RND), fone, wp, RND), abi, wp, RND)
        e.append(mpf_sqrt(mpf_div(num, mpf_mul(den, abi, wp, RND), wp, RND), wp, RND))
    return d, e, w, mpf_div(power, alpha1, wp, RND)


def _tridiag_ql(d: list, e: list, wp: int) -> list:
    """The implicit QL iteration of mpmath's tridiag_eigen at wp bits: d
    becomes the eigenvalues (unsorted), e is destroyed, and the returned list
    holds the eigenvectors' first components."""
    n, add, sub, mul, div = len(d), mpf_add, mpf_sub, mpf_mul, mpf_div
    e[-1] = fzero
    z = [fone] + [fzero] * (n - 1)
    eps, limit = mpf_shift(fone, 1 - wp), SWEEPS_PER_DIGIT * libmp.prec_to_dps(wp)
    for l in range(n):
        sweeps = 0
        while True:
            m = l  # the first negligible subdiagonal element from l on
            while m + 1 < n and mpf_gt(mpf_abs(e[m]), mul(eps, add(mpf_abs(d[m]), mpf_abs(d[m + 1]), wp, RND),
                                                          wp, RND)):
                m += 1
            if m == l:
                break
            if sweeps >= limit:
                raise ToleranceUnreachable(f"a {n}-node Gauss-Jacobi rule finds no eigenvalue within "
                                           f"{limit} QL sweeps at {wp} bits")
            sweeps += 1
            p = d[l]
            g = div(sub(d[l + 1], p, wp, RND), mpf_shift(e[l], 1), wp, RND)
            r = mpf_hypot(g, fone, wp, RND)
            s = sub(g, r, wp, RND) if mpf_lt(g, fzero) else add(g, r, wp, RND)
            g = add(sub(d[m], p, wp, RND), div(e[l], s, wp, RND), wp, RND)
            s, c, p = fone, fone, fzero
            for i in range(m - 1, l - 1, -1):
                f, b = mul(s, e[i], wp, RND), mul(c, e[i], wp, RND)
                if mpf_gt(mpf_abs(f), mpf_abs(g)):
                    c = div(g, f, wp, RND)
                    r = mpf_hypot(c, fone, wp, RND)
                    e[i + 1], s = mul(f, r, wp, RND), mpf_rdiv_int(1, r, wp, RND)
                    c = mul(c, s, wp, RND)
                else:
                    s = div(f, g, wp, RND)
                    r = mpf_hypot(s, fone, wp, RND)
                    e[i + 1], c = mul(g, r, wp, RND), mpf_rdiv_int(1, r, wp, RND)
                    s = mul(s, c, wp, RND)
                g = sub(d[i + 1], p, wp, RND)
                r = add(mul(sub(d[i], g, wp, RND), s, wp, RND), mul(mpf_shift(c, 1), b, wp, RND), wp, RND)
                p = mul(s, r, wp, RND)
                d[i + 1], g = add(g, p, wp, RND), sub(mul(c, r, wp, RND), b, wp, RND)
                f = z[i + 1]
                z[i + 1] = add(mul(s, z[i], wp, RND), mul(c, f, wp, RND), wp, RND)
                z[i] = sub(mul(c, z[i], wp, RND), mul(s, f, wp, RND), wp, RND)
            d[l] = sub(d[l], p, wp, RND)
            e[l], e[m] = g, fzero
    return z


@lru_cache(maxsize=128)
def _rule_cached(a_key, npoints: int, precision: int):
    a_fr, wp = Fraction(a_key), precision + 32
    alpha = mpf_div(from_int(a_fr.numerator), from_int(a_fr.denominator), wp, RND)
    d, e, w, mass = _jacobi_matrix(alpha, npoints, wp)
    weights = [mpf_mul(w, mpf_mul(v, v, wp, RND), wp, RND) for v in _tridiag_ql(d, e, wp)]
    if mpf_gt(mpf_abs(mpf_sub(libmp.mpf_sum(weights, wp, RND), mass, wp, RND)), mpf_shift(mass, 16 - precision)):
        raise ToleranceUnreachable(
            f"Gauss-Jacobi rule (a={a_fr}, {npoints} nodes) misses its weight "
            f"mass at {precision} bits"
        )
    # handed out in mpmath's global context, whose arithmetic rounds at the caller's precision
    nodes, weights = (tuple(v) for v in zip(*sorted(zip(map(mp.make_mpf, d), map(mp.make_mpf, weights)))))
    if not (-1 < nodes[0] and nodes[-1] < 1 and all(x < y for x, y in zip(nodes, nodes[1:]))):
        raise ToleranceUnreachable(
            f"Gauss-Jacobi rule (a={a_fr}, {npoints} nodes) has nodes that are "
            f"not strictly increasing inside (-1, 1) at {precision} bits"
        )
    return nodes, weights


def gauss_jacobi_rule(a_exponent: Fraction, npoints: int, precision: int):
    """Nodes (ascending) and weights for weight (1-u)^a on [-1, 1].

    Requires a > -1 (integrable singularity) and npoints >= 1.  Raises
    ToleranceUnreachable if the built rule fails its weight-mass or node
    ordering check, or if its eigensolver does not converge.
    """
    a_fr = Fraction(a_exponent)
    if a_fr <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {a_fr}")
    if npoints < 1:
        raise DomainError(f"need at least one node, got {npoints}")
    return _rule_cached(a_fr, npoints, precision)
