"""Audit of the frozen-coefficient ellipticity sandwich on random states.

The linearized operator has the coefficient matrix a_ij = delta_ij +
(p-2) u_i u_j / v^2 with v^2 = eps + |grad u|^2, built from the gradient,
the exponent and eps alone.  Its eigenvalues are 1 and
1 + (p-2)|grad u|^2 / v^2, so for p between p1 and p2 every Rayleigh
quotient should land in [min(p1-1, 1), max(p2-1, 1)].  The check computes
both eigenvalues of each matrix; we hammer the claim with random states
spanning twelve orders of magnitude in |grad u|.
"""

import numpy as np

from plapx.regularity import CoefficientSample, ellipticity_check

N = 50_000
P1, P2 = 1.2, 3.5
rng = np.random.Generator(np.random.Philox(7))

theta = rng.uniform(0.0, 2.0 * np.pi, size=N)
mag = 10.0 ** rng.uniform(-6.0, 6.0, size=N)
grad = np.column_stack([mag * np.cos(theta), mag * np.sin(theta)])
p_vals = rng.uniform(P1, P2, size=N)
eps = 10.0 ** rng.uniform(-6.0, 0.0, size=N)

sample = CoefficientSample.from_state(grad=grad, p_vals=p_vals, eps=eps)

rep = ellipticity_check(sample, P1, P2)
print(f"claimed band    [{rep.lower:.3f}, {rep.upper:.3f}]")
print(f"low margin      {rep.low_margin:.3e}")
print(f"high margin     {rep.high_margin:.3e}")
print(f"samples         {rep.n_samples}")
print(f"satisfied       {rep.satisfied}")

# a deliberately wrong claim should be caught
bad = ellipticity_check(sample, 1.9, 2.1)
print()
print(f"narrow claim [0.9, 1.1] satisfied: {bad.satisfied} "
      f"(low margin {bad.low_margin:.3f})")
