"""The pure-birth dual: absorption times without ever stepping back.

A lower-triangular link built from spectral polynomials intertwines the game
with a chain whose coordinates only ever increase; its diagonal carries the
game's spectrum. Absorption of the game at the win corner has the same law
as absorption of the dual, mixed over (possibly signed) start weights. The
mixture is checked pointwise in time against the game's own law.
"""

import numpy as np

from krongambler import (
    BirthDeathSpec,
    absorb_dist,
    build_dual,
    build_game,
    dual_initial,
    preset_r_of_d,
)
from krongambler.absorption import pgf_from_dual

a = BirthDeathSpec(N=3, p=(0.10, 0.12), q=(0.08, 0.06))
b = BirthDeathSpec(N=3, p=(0.09, 0.11), q=(0.07, 0.05))
game = preset_r_of_d([a, b], 1)
chain = build_game(game)
link, dual = build_dual(game)

print("link is lower triangular with the win column isolated:")
print(np.array_str(link.matrix, precision=3, suppress_small=True))
print("\nlink corner value = product of per-coordinate win probabilities:",
      link.iso_value)

resid = np.max(np.abs(link.matrix @ chain.dense()
                      - dual.dense() @ link.matrix))
print("intertwining residual:", resid)

print("\ndual chain (holding probabilities on the diagonal):")
print(np.array_str(dual.dense(), precision=3, suppress_small=True))
spectrum = np.sort(np.linalg.eigvals(chain.dense()).real)
print("game spectrum vs sorted dual diagonal, max diff:",
      np.max(np.abs(spectrum - np.sort(dual.diag))))

# start away from the bottom corner: dual weights go signed, the mixed law
# still reproduces the game's winning-time law exactly
start = np.zeros(game.size)
start[chain.to_linear((2, 2))] = 1.0
weights = dual_initial(link, start)
print("\nstart (2,2) dual weights:", np.round(weights.values, 4),
      "| proper distribution:", weights.is_distribution)

mix = pgf_from_dual(link, dual, weights.values)
direct = absorb_dist(chain, start, target=chain.win_index)
horizon = len(direct.pmf)
mixture = np.zeros(horizon)
for w, part in zip(mix.weights, mix.parts):
    c = np.asarray(part.pmf)[:horizon]
    mixture[: len(c)] += mix.scale * w * c
print("winning-time law, game vs mixed dual, sup difference:",
      np.max(np.abs(mixture - direct.pmf)))
print("total winning mass:", mix.evaluate(1.0))
