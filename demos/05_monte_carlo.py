"""Monte Carlo cross-checks, including the coupled dual construction.

Simulation is reproducible: a fixed (seed, runs) pair always yields the
bit-identical report. The coupled run rebuilds the pure-birth dual path
step by step from the observed game path; the two reach their top corners
at exactly the same moment, on every single path.
"""

import json

import numpy as np

from krongambler import (
    BirthDeathSpec,
    SimConfig,
    build_game,
    linear_index,
    preset_r_of_d,
    simulate,
    simulate_coupled,
    win_prob_product,
)

spec = BirthDeathSpec(N=3, p=(0.08, 0.07), q=(0.05, 0.06))
game = preset_r_of_d([spec, spec], 1)
chain = build_game(game)

cfg = SimConfig(runs=50_000, seed=123)
report = simulate(chain, (2, 2), cfg)
exact = win_prob_product(game)[linear_index(chain.dims, (2, 2))]
print(f"empirical win frequency: {report.win_freq:.5f} "
      f"(exact {exact:.5f}, standard error {report.win_se:.5f})")

again = simulate(chain, (2, 2), cfg)
print("same config, bit-identical report:",
      json.dumps(report.as_dict()) == json.dumps(again.as_dict()))

nu = np.zeros(9)
nu[0] = 1.0
coupled, paths = simulate_coupled(
    game, nu, SimConfig(runs=2_000, seed=5), record_paths=True
)
print(f"\ncoupled runs: {coupled.runs}, wins {coupled.n_win}, "
      f"synchronization violations {coupled.coupling_violations}")

one = paths[0]
print("one joint path (game, dual lattice index):", one[:10])
coords = [np.unravel_index(h, (3, 3)) for _, h in one]
print("dual coordinates never decrease:",
      all(all(a >= b for a, b in zip(x, y))
          for x, y in zip(coords[1:], coords)))
