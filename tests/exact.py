"""Exact rational references for one-dimensional gambler chains.

Every double is a dyadic rational, so the float rates of a
``BirthDeathSpec`` describe one chain exactly, holds 1 - p - q included,
and ``fractions.Fraction`` analyzes that chain with no rounding at all.
On the transient states 1..N-1 the chain is the tridiagonal block Q; it
leaves through the win exit p(N-1) out of state N-1 and the ruin exit q(1)
out of state 1. For a target T and a rational s, the law's values
E[s^T; target] solve (I - sQ) g = s * exit, and the partial expectations
E[T; target] solve (I - Q) m = g(1). Both are one exact tridiagonal
elimination, whose pivots are positive because I - sQ is a nonsingular
M-matrix for 0 <= s <= 1.

Every function returns one Fraction per start 1..N; at the win state N the
time is 0, so the win law is 1 and the lose law 0 there.
"""

from fractions import Fraction


def _band(spec):
    """(hold, up, down) of Q as Fractions, each of length N - 1."""
    p = [Fraction(x) for x in spec.p]
    q = [Fraction(x) for x in spec.q]
    return [1 - a - b for a, b in zip(p, q)], p, q


def _solve(spec, s, rhs):
    """Solve (I - sQ) x = rhs on the transient states by exact elimination."""
    hold, up, down = _band(spec)
    n = len(rhs)
    diag = [1 - s * h for h in hold]
    upper = [-s * u for u in up[:-1]]
    lower = [-s * d for d in down[1:]]
    diag, rhs = diag[:], rhs[:]
    for i in range(1, n):
        factor = lower[i - 1] / diag[i - 1]
        diag[i] -= factor * upper[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rhs[i] - (upper[i] * x[i + 1] if i + 1 < n else 0)) / diag[i]
    return x


def _exit(spec, target):
    exit = [Fraction(0)] * (spec.N - 1)
    if target == "win":
        exit[-1] = Fraction(spec.p[-1])
    else:
        exit[0] = Fraction(spec.q[0])
    return exit


def law(spec, s, target="win"):
    """E[s^T; target] from each start, T the absorption time, s rational."""
    s = Fraction(s)
    at_win = Fraction(1 if target == "win" else 0)
    if spec.N == 1:
        return [at_win]
    return _solve(spec, s, [s * e for e in _exit(spec, target)]) + [at_win]


def rho(spec):
    """The win probability from each start: the win law at s = 1."""
    return law(spec, 1, "win")


def mean(spec, target="win"):
    """The partial expectation E[T; target] from each start."""
    if spec.N == 1:
        return [Fraction(0)]
    return _solve(spec, Fraction(1), law(spec, 1, target)[:-1]) + [Fraction(0)]


def rel_error(value, exact):
    """|value - exact| / |exact|, or |value| where exact is 0, as a float."""
    gap = abs(Fraction(value) - exact)
    return float(gap / abs(exact)) if exact else float(gap)
