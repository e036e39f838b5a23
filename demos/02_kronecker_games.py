"""Multidimensional games from Kronecker mixtures.

Playing against d opponents at once: each mixture subset names the
coordinates that move together in one step, and the weights (which may be
negative for the balancing term) sum to one. The winning probability of the
assembled game factorizes over the coordinates, which we confirm against a
direct linear solve and against the stationary law of a dual ergodic chain.
"""

import numpy as np

from krongambler import (
    BirthDeathSpec,
    build_game,
    check_communication,
    linear_index,
    preset_r_of_d,
    win_prob_product,
    win_prob_solve,
)
from krongambler.siegmund import win_prob_pi_route

a = BirthDeathSpec(N=3, p=(0.10, 0.12), q=(0.08, 0.06))
b = BirthDeathSpec(N=4, p=(0.09, 0.11, 0.10), q=(0.07, 0.05, 0.08))

for r in (1, 2):
    game = preset_r_of_d([a, b], r)
    print(f"at most {r} coordinate(s) per step: subsets "
          f"{[sorted(s) for s in game.subsets]} weights {game.coeffs}")
    chain = build_game(game)
    print("  lattice states:", chain.size,
          "| communicating:", check_communication(chain))
    rho_prod = win_prob_product(game)
    rho_solve = win_prob_solve(chain)
    rho_dual = win_prob_pi_route(chain.matrix.toarray(), chain.dims)
    print("  product formula vs solve:   ",
          np.max(np.abs(rho_prod - rho_solve)))
    print("  duality route vs solve:     ",
          np.max(np.abs(rho_dual - rho_solve)))
    start = linear_index(chain.dims, (2, 2))
    print(f"  win probability from (2, 2): {rho_prod[start]:.6f}")
    print()

# the r = 1 game is the classic one-coordinate-at-a-time ruin problem;
# its win probability from (i, j) is the product of one-dimensional answers
game = preset_r_of_d([a, b], 1)
chain = build_game(game)
rho = win_prob_product(game)
print("win probabilities on the 3 x 4 board (rows: first coordinate):")
print(np.array_str(rho.reshape(3, 4), precision=4))
