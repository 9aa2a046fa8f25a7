"""Gauss-Jacobi rules with the endpoint singularity folded into the weight.

Rules integrate (1-u)^a * poly(u) over [-1, 1] exactly for polynomial
degree <= 2Q - 1.  They are built by the Golub-Welsch method (Math. Comp.
23, 1969): the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the weight's three-term recurrence, and the weights are the
squared first eigenvector components times the weight's total mass.  The
eigensolver runs 32 bits above the requested precision on a private mpmath
context, so mpmath's global precision is never set.  Each rule is checked
before it is handed out: its weights must add up to the mass
2^(a+1)/(a+1), and its nodes must increase strictly inside (-1, 1).  A memo
of 128 rules sits under the oracle's set-up memo in :mod:`fracpoly.fractional`:
orders of one a, such as 1/2, 3/2 and 5/2 (a = -1/2), share their rules.

Everything here deliberately leans on mpmath's own eigensolver and gamma,
so the quadrature route shares no code with the package's Spouge gamma or
series machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import MPContext, mp

from .errors import DomainError, ToleranceUnreachable
from .scalars import _PREC_LOCK

__all__ = ["gauss_jacobi_rule"]

# one context for every build: a context holds reference cycles, so one per
# build would stay alive until the garbage collector ran
_RULE_CTX = MPContext()


@lru_cache(maxsize=128)
def _rule_cached(a_key, npoints: int, precision: int):
    a_fr, ctx = Fraction(a_key), _RULE_CTX
    with _PREC_LOCK:  # the context's precision and mpmath's constant memos
        ctx.prec = precision + 32
        a = ctx.mpf(a_fr.numerator) / a_fr.denominator
        xs, ws = ctx.gauss_quadrature(npoints, "jacobi", a, 0)
        # handed out in mpmath's global context, whose arithmetic rounds at the caller's precision
        nodes, weights = (tuple(mp.make_mpf(x._mpf_) for x in v) for v in zip(*sorted(zip(xs, ws))))
        mass = ctx.mpf(2) ** (a + 1) / (a + 1)
        if abs(ctx.fsum(weights) - mass) > ctx.mpf(2) ** (16 - precision) * mass:
            raise ToleranceUnreachable(
                f"Gauss-Jacobi rule (a={a_fr}, {npoints} nodes) misses its weight "
                f"mass at {precision} bits"
            )
        if not (-1 < nodes[0] and nodes[-1] < 1
                and all(x < y for x, y in zip(nodes, nodes[1:]))):
            raise ToleranceUnreachable(
                f"Gauss-Jacobi rule (a={a_fr}, {npoints} nodes) has nodes that are "
                f"not strictly increasing inside (-1, 1) at {precision} bits"
            )
        return nodes, weights


def gauss_jacobi_rule(a_exponent: Fraction, npoints: int, precision: int):
    """Nodes (ascending) and weights for weight (1-u)^a on [-1, 1].

    Requires a > -1 (integrable singularity) and npoints >= 1.  Raises
    ToleranceUnreachable if the built rule fails its weight-mass or node
    ordering check.
    """
    a_fr = Fraction(a_exponent)
    if a_fr <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {a_fr}")
    if npoints < 1:
        raise DomainError(f"need at least one node, got {npoints}")
    return _rule_cached(a_fr, npoints, precision)
