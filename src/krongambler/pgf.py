"""Probability generating functions, represented semi-numerically.

Three evaluable forms cover everything the package produces: products of
geometric factors, optionally divided by other factors (the closed forms of
one-dimensional chains); finite mixtures with possibly signed weights; and
the resolvent of a game's CSR kernel, one sparse LU solve per evaluation
point. For defective laws the value at s=1 is the total mass at the target
rather than 1, and ``mean`` is the partial expectation sum(t * pmf(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import AbsorbingChain
from .linalg import resolvent

_SINGULARITY_TOL = 1e-14


def _factor(lam: np.ndarray, s: float) -> float:
    """prod over lam of (1-lam) / (1-lam s): the geometric factors without s."""
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0:
        return 1.0
    den = 1.0 - lam * s
    if np.min(np.abs(den)) < _SINGULARITY_TOL:
        raise ValueError(f"pgf evaluated at a pole, s={s}")
    return float(np.prod((1.0 - lam) / den))


@dataclass(frozen=True)
class GeometricProductPgf:
    """scale * prod of geometric factors over num, divided by those over den.

    Each factor (1-lam) s / (1-lam s) is the pgf of a geometric waiting time
    with success probability 1-lam. Evaluable wherever no factor has a pole.
    """

    scale: float
    num: tuple = ()
    den: tuple = ()

    def evaluate(self, s: float) -> float:
        if not math.isfinite(s):
            raise ValueError(f"pgf evaluated at a non-finite s={s}")
        # the factors' powers of s cancel, so s = 0 is no 0/0
        power = s ** (len(self.num) - len(self.den))
        return self.scale * power * _factor(self.num, s) / _factor(self.den, s)

    def mass(self) -> float:
        """Value at s=1: the total probability carried by the law."""
        return self.scale

    def mean(self) -> float:
        """Partial expectation sum(t * pmf(t)), i.e. the derivative at s=1."""
        num = np.asarray(self.num, dtype=float)
        den = np.asarray(self.den, dtype=float)
        acc = 0.0
        if num.size:
            acc += float(np.sum(1.0 / (1.0 - num)))
        if den.size:
            acc -= float(np.sum(1.0 / (1.0 - den)))
        return self.scale * acc


@dataclass(frozen=True, eq=False)
class ResolventPgf:
    """pgf of a chain's time to its win corner, one sparse solve per point.

    ``chain`` is an AbsorbingChain (a game, ``build_game(game)``) and ``nu``
    a start law over its states, flat or in lattice shape. The value at s is
    nu[win] + nu[:-1] . h(s), where h(s) solves (I - sQ) h = s P[:-1, win]
    on the transient block Q (``linalg.resolvent``). Evaluable for |s| <= 1.
    """

    chain: AbsorbingChain
    nu: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float).reshape(self.chain.size)
        object.__setattr__(self, "nu", nu)

    def evaluate(self, s: float) -> float:
        if not abs(s) <= 1.0:  # NaN fails this test too
            raise ValueError("resolvent pgf is only evaluable for |s| <= 1")
        chain = self.chain
        h = resolvent(chain.transient, s).solve(s * chain.exit("win"))
        return float(self.nu[:-1] @ h + self.nu[-1])

    def mass(self) -> float:
        return self.evaluate(1.0)

    def mean(self) -> float:
        """nu . (I - Q)^-1 h(1): the derivative at s=1, by one more solve."""
        lu = resolvent(self.chain.transient)
        return float(self.nu[:-1] @ lu.solve(lu.solve(self.chain.exit("win"))))


@dataclass(frozen=True)
class MixturePgf:
    """sum of weight_i * part_i(s); weights may be negative."""

    weights: tuple
    parts: tuple

    def _mix(self, values) -> float:
        return float(sum(w * v for w, v in zip(self.weights, values)))

    def evaluate(self, s: float) -> float:
        return self._mix(p.evaluate(s) for p in self.parts)

    def mass(self) -> float:
        return self._mix(p.mass() for p in self.parts)

    def mean(self) -> float:
        return self._mix(p.mean() for p in self.parts)
