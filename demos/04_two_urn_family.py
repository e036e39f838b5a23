"""A worked family with everything in closed form: the lazy two-urn walk.

The ergodic walk shuffles N-1 particles between two urns (with an extra
half-probability of standing still), has a binomial stationary law and an
equally spaced spectrum. Its sharp dual is an absorbing chain whose time to
the top, started anywhere, is an explicit signed mixture of sums of
geometric variables; expectations come out in closed form too.
"""

import numpy as np

from krongambler import AbsorbingChain, absorb_dist, classical_ssd_1d
from krongambler.birth_death import bd_restricted
from krongambler.intertwine import ehrenfest_closed_forms, ehrenfest_ergodic

n = 6
walk = ehrenfest_ergodic(n)
dual_spec, link = classical_ssd_1d(walk)
print(f"dual of the {n}-state walk (top absorbing):")
print("up rates:  ", np.round(dual_spec.p, 4))
print("down rates:", np.round(dual_spec.q, 4))

for m in (1, 3, n):
    forms = ehrenfest_closed_forms(n, m)
    print(f"\nstart {m}: dual weights {np.round(forms.nu, 4)} "
          f"(sum {forms.nu.sum():.6f})")
    print(f"  expected time to the top: {forms.expected_time:.6f}")
    nu = np.zeros(n)
    nu[m - 1] = 1.0
    dist = absorb_dist(AbsorbingChain(bd_restricted(dual_spec), (n,)), nu)
    print(f"  same, from the absorption law: {dist.mean():.6f}")
    print(f"  pgf at 0.9 (closed form): {forms.pgf.evaluate(0.9):.6f}")

print("\nstart 1 for the 3-state family gives expected time exactly 3:",
      ehrenfest_closed_forms(3, 1).expected_time)
