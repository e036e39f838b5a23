"""Probability generating functions, represented semi-numerically.

Three evaluable forms cover everything the package produces: products of
geometric factors (optionally divided by other factors), finite mixtures with
possibly signed weights, and truncated power series backed by an absorption
pmf. For defective laws the value at s=1 is the total mass at the target
rather than 1, and ``mean`` is the partial expectation sum(t * pmf(t)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonError

_SINGULARITY_TOL = 1e-14


def _factor(lam: np.ndarray, s: float) -> float:
    """prod over lam of (1-lam) s / (1-lam s)."""
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0:
        return 1.0
    den = 1.0 - lam * s
    if np.min(np.abs(den)) < _SINGULARITY_TOL:
        raise ValueError(f"pgf evaluated at a pole, s={s}")
    return float(np.prod((1.0 - lam) * s / den))


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
        return self.scale * _factor(np.array(self.num), s) / _factor(
            np.array(self.den), s
        )

    __call__ = evaluate

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


@dataclass(frozen=True)
class SeriesPgf:
    """Truncated power series sum pmf[t] * s^t with a known tail bound.

    Valid for |s| <= 1, where the truncation error is at most ``tail``.
    """

    pmf: np.ndarray
    tail: float
    eps: float = 1e-12

    def evaluate(self, s: float) -> float:
        if not abs(s) <= 1.0:  # NaN fails this test too
            raise ValueError("series-backed pgf is only evaluable for |s| <= 1")
        powers = np.power(s, np.arange(len(self.pmf)))
        return float(np.dot(self.pmf, powers))

    __call__ = evaluate

    def mass(self) -> float:
        return float(np.sum(self.pmf))

    def mean(self) -> float:
        if self.tail > self.eps:
            raise HorizonError(
                f"tail {self.tail:.3e} above eps {self.eps:.3e}; "
                "extend the horizon before taking expectations"
            )
        return float(np.dot(np.arange(len(self.pmf)), self.pmf))


@dataclass(frozen=True)
class MixturePgf:
    """scale * sum of weight_i * part_i(s); weights may be negative."""

    scale: float
    weights: tuple
    parts: tuple

    def _mix(self, values) -> float:
        return self.scale * float(sum(w * v for w, v in zip(self.weights, values)))

    def evaluate(self, s: float) -> float:
        return self._mix(p.evaluate(s) for p in self.parts)

    __call__ = evaluate

    def mass(self) -> float:
        return self._mix(p.mass() for p in self.parts)

    def mean(self) -> float:
        return self._mix(p.mean() for p in self.parts)
