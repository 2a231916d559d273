"""How the per-round randomization law is built, and why it hedges.

Each round the engine holds a piecewise-constant profile phi over the N
prediction bins (from the expert weights).  The prediction law must make
the weighted audit phi(p) * ident(p, y) unprofitable for EVERY label law:

  * phi(0) > 0  -> predict 0 deterministically (ident(0, .) <= 0),
  * phi(1) <= 0 -> predict 1 deterministically (ident(1, .) >= 0),
  * otherwise randomize over two adjacent 1/T-grid points straddling a
    sign change, with inverse-magnitude weights; the Lipschitz slope rho
    of the marginal residual caps the expected audit at rho / T.

The script walks the three branches and then stress-tests the bound.
"""

import numpy as np

from swapcal import (
    GridConfig,
    PhiProfile,
    TwoPointDistribution,
    bernoulli_law,
    marginal_identification,
    mean_property,
    solve_distribution,
)

grid = GridConfig(N=2, T=10)
prop = mean_property()

for label, values in [
    ("all-positive profile", [0.3, 0.6]),
    ("all-negative profile", [-0.2, -0.1]),
    ("sign change (worked example)", [-0.5, 0.25]),
]:
    dist = TwoPointDistribution.from_law(solve_distribution(np.array(values), grid), grid.T)
    pts = ", ".join(f"{j / grid.T:g}" for j in dist.support_idx)
    prs = ", ".join(f"{p:.4g}" for p in dist.probs)
    print(f"{label}: phi = {values} -> support ({pts}) with probabilities ({prs})")

print()
print("hedging audit on the worked example against a fair coin:")
phi = PhiProfile(np.array([-0.5, 0.25]))
dist = TwoPointDistribution.from_law(solve_distribution(phi.values, grid), grid.T)
law = bernoulli_law(0.5)
value = sum(
    pr * phi.at_index(j, grid) * marginal_identification(prop, j / grid.T, law)
    for j, pr in zip(dist.support_idx, dist.probs)
)
print(f"  E[phi * ident] = {value:.6f} <= rho/T = {1.0 / grid.T}")

print()
print("stress: 200 random profiles, worst audited value vs rho/T")
rng = np.random.default_rng(1)
worst = -np.inf
big = GridConfig(N=16, T=400)
for _ in range(200):
    phi = PhiProfile(rng.uniform(-1, 1, big.N))
    dist = TwoPointDistribution.from_law(solve_distribution(phi.values, big), big.T)
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        law = bernoulli_law(mu)
        value = sum(
            pr * phi.at_index(j, big) * marginal_identification(prop, j / big.T, law)
            for j, pr in zip(dist.support_idx, dist.probs)
        )
        worst = max(worst, value)
print(f"  worst value {worst:.3e} vs bound {1.0 / big.T:.3e}")
