"""Probability generating functions, represented semi-numerically.

Two evaluable forms cover everything the package produces: products of
geometric factors, optionally divided by other factors (the closed forms of
one-dimensional chains, :func:`krongambler.absorption.pgf_two_sided`), and
the resolvent of a game's CSR kernel, one sparse LU solve per evaluation
point. For defective laws the value at s=1 is the total mass at the target
rather than 1, and ``mean`` is the partial expectation sum(t * pmf(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import AbsorbingChain, start_law
from .linalg import resolvent

_SINGULARITY_TOL = 1e-14


def _log_factor(rates, s: float) -> tuple:
    """log|prod of mu / (1 - s + mu s)| over the rates mu, and its sign.

    The sign is a count of negative terms. The product is summed as logs,
    so it stays finite where a long chain's product underflows.
    """
    mu = np.asarray(rates, dtype=float)
    x = np.array([mu, (1.0 - s) + mu * s])
    if np.min(np.abs(x[1]), initial=1.0) < _SINGULARITY_TOL:
        raise ValueError(f"pgf evaluated at a pole, s={s}")
    logs = np.log(np.abs(x))
    return float(np.sum(logs[0] - logs[1])), int(np.count_nonzero(x < 0.0))


@dataclass(frozen=True)
class GeometricProductPgf:
    """scale * prod of geometric factors over num, divided by those over den.

    ``num`` and ``den`` hold rates: each factor mu s / (1 - s + mu s) is the
    pgf of a geometric waiting time with success probability mu. Evaluable
    wherever no factor has a pole.
    """

    scale: float
    num: tuple = ()
    den: tuple = ()

    def evaluate(self, s: float) -> float:
        if not math.isfinite(s):
            raise ValueError(f"pgf evaluated at a non-finite s={s}")
        log_num, neg_num = _log_factor(self.num, s)
        log_den, neg_den = _log_factor(self.den, s)
        # the factors' powers of s cancel down to s^k, so s = 0 is no 0/0
        k = len(self.num) - len(self.den)
        if k and s == 0.0:
            if k < 0:
                raise ValueError(f"pgf evaluated at a pole, s={s}")
            return 0.0
        log_abs = log_num - log_den + (k * math.log(abs(s)) if k else 0.0)
        negatives = neg_num + neg_den + (k if s < 0.0 else 0)
        return self.scale * (-1.0) ** negatives * math.exp(log_abs)

    def mass(self) -> float:
        """Value at s=1: the total probability carried by the law."""
        return self.scale

    def mean(self) -> float:
        """Partial expectation sum(t * pmf(t)), i.e. the derivative at s=1."""
        num = np.sum(1.0 / np.asarray(self.num, dtype=float))
        den = np.sum(1.0 / np.asarray(self.den, dtype=float))
        return self.scale * float(num - den)


@dataclass(frozen=True, eq=False)
class ResolventPgf:
    """pgf of a chain's time to its win corner, one sparse solve per point.

    ``chain`` is an AbsorbingChain (a game, ``build_game(game)``) and ``nu``
    a start law over its states (``game.start_law``). The value at s is
    nu[win] + nu[:-1] . h(s), where h(s) solves (I - sQ) h = s P[:-1, win]
    on the transient block Q (``linalg.resolvent``). Evaluable for |s| <= 1;
    any other s, NaN included, raises ValueError.
    """

    chain: AbsorbingChain
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", start_law(self.chain.dims, self.nu))

    def evaluate(self, s: float) -> float:
        chain = self.chain
        h = resolvent(chain, s).solve(s * chain.exit("win"))
        return float(self.nu[:-1] @ h + self.nu[-1])

    def mass(self) -> float:
        return self.evaluate(1.0)

    def mean(self) -> float:
        """nu . (I - Q)^-1 h(1): the derivative at s=1, by one more solve."""
        lu = resolvent(self.chain)
        return float(self.nu[:-1] @ lu.solve(lu.solve(self.chain.exit("win"))))
