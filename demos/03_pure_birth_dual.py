"""The pure-birth dual: absorption times without ever stepping back.

A lower-triangular link built from spectral polynomials intertwines the game
with a chain whose coordinates only ever increase; its diagonal carries the
game's spectrum. Absorption of the game at the win corner has the same law
as absorption of the dual, mixed over (possibly signed) start weights. The
mixture is checked pointwise in time against the game's own law.
"""

from functools import reduce

import numpy as np

from krongambler import (
    BirthDeathSpec,
    absorb_dist,
    build_dual,
    build_game,
    dual_initial,
    linear_index,
    preset_r_of_d,
)

a = BirthDeathSpec(N=3, p=(0.10, 0.12), q=(0.08, 0.06))
b = BirthDeathSpec(N=3, p=(0.09, 0.11), q=(0.07, 0.05))
game = preset_r_of_d([a, b], 1)
chain = build_game(game)
link, dual = build_dual(game)
kernel, p_hat = chain.matrix.toarray(), dual.matrix.toarray()
lam = reduce(np.kron, link.per_dim)

print("link is lower triangular with the win column isolated:")
print(np.array_str(lam, precision=3, suppress_small=True))
print("\nlink corner value = product of per-coordinate win probabilities:",
      link.iso_value)

resid = np.max(np.abs(lam @ kernel - p_hat @ lam))
print("intertwining residual:", resid)

print("\ndual chain (holding probabilities on the diagonal):")
print(np.array_str(p_hat, precision=3, suppress_small=True))
spectrum = np.sort(np.linalg.eigvals(kernel).real)
print("game spectrum vs sorted dual diagonal, max diff:",
      np.max(np.abs(spectrum - np.sort(dual.matrix.diagonal()))))

# start away from the bottom corner: dual weights go signed, the mixed law
# still reproduces the game's winning-time law exactly
start = np.zeros(game.size)
start[linear_index(chain.dims, (2, 2))] = 1.0
weights = dual_initial(link, start)
print("\nstart (2,2) dual weights:", np.round(weights, 4),
      "| proper distribution:",
      bool(weights.min() >= 0.0 and np.isclose(weights.sum(), 1.0)))

# the mixture is linear in the weights: one run of the dual from them
mixed = link.iso_value * absorb_dist(dual, weights).pmf
direct = absorb_dist(chain, start)
horizon = len(direct.pmf)
mixture = np.pad(mixed, (0, horizon))[:horizon]
print("winning-time law, game vs mixed dual, sup difference:",
      np.max(np.abs(mixture - direct.pmf)))
print("total winning mass:", mixed.sum())
