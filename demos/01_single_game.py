"""One-dimensional gambler chain: win probabilities and absorption times.

A player holds i of N dollars and wins/loses one per round with rates p(i),
q(i). We build the chain, compute the probability of reaching N before ruin
by two independent methods, and look at the full law of the game duration.
"""

import numpy as np

from krongambler import (
    BirthDeathSpec,
    absorb_dist,
    bd_eigenvalues,
    bd_matrix,
    bd_win_prob,
    bd_win_prob_solve,
    pgf_two_sided,
)

spec = BirthDeathSpec(N=5, p=(0.3, 0.25, 0.3, 0.25), q=(0.1, 0.15, 0.1, 0.15))
print("transition matrix on {0..5} (0 = ruin, 5 = win):")
print(np.array_str(bd_matrix(spec), precision=3, suppress_small=True))

rho = bd_win_prob(spec)
print("\nwin probability from each state (closed form):", np.round(rho, 6))
print("same, from the fundamental-matrix solve:      ",
      np.round(bd_win_prob_solve(spec), 6))
print("max difference:", np.max(np.abs(rho - bd_win_prob_solve(spec))))

lam = bd_eigenvalues(spec)
print("\nspectrum of the ruin-restricted chain (ascending):", np.round(lam, 6))

start = 3
win, lose = pgf_two_sided(spec, start)
print(f"\nfrom state {start}: P(win) = {win.mass():.6f}, "
      f"P(ruin) = {lose.mass():.6f}")
print("pgf of the winning time at s = 0.5:", win.evaluate(0.5))
print("expected rounds spent before a win (partial expectation):",
      win.mean())

nu = np.zeros(6)
nu[start] = 1.0
dist = absorb_dist(bd_matrix(spec), nu, target=5)
print("\nfirst win-time probabilities:", np.round(dist.pmf[:8], 6))
print("their total plus tail:", dist.pmf.sum() + dist.tail)
print("expectation from the law:", dist.mean())
