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

from swapcal import GridConfig, bernoulli_law, marginal_identification, mean_property, solve_distribution

grid = GridConfig(N=2, T=10)
prop = mean_property()


def support(law):
    """The (grid index, probability) pairs of a law (j_lo, j_hi, p_lo, p_hi)."""
    lo, hi, p_lo, p_hi = law
    return [(lo, p_lo)] if hi == lo else [(lo, p_lo), (hi, p_hi)]


def audit(phi, law, grid, label_law):
    """E_{p ~ law}[phi(p) * marginal residual(p, label_law)], phi read at the bin of each support point."""
    return sum(
        pr * phi[grid.bin_of_index(j) - 1] * marginal_identification(prop, j / grid.T, label_law)
        for j, pr in support(law)
    )


for label, values in [
    ("all-positive profile", [0.3, 0.6]),
    ("all-negative profile", [-0.2, -0.1]),
    ("sign change (worked example)", [-0.5, 0.25]),
]:
    law = solve_distribution(np.array(values), grid)
    pts = ", ".join(f"{j / grid.T:g}" for j, _ in support(law))
    prs = ", ".join(f"{pr:.4g}" for _, pr in support(law))
    print(f"{label}: phi = {values} -> support ({pts}) with probabilities ({prs})")

print()
print("hedging audit on the worked example against a fair coin:")
phi = np.array([-0.5, 0.25])
value = audit(phi, solve_distribution(phi, grid), grid, bernoulli_law(0.5))
print(f"  E[phi * ident] = {value:.6f} <= rho/T = {1.0 / grid.T}")

print()
print("stress: 200 random profiles, worst audited value vs rho/T")
rng = np.random.default_rng(1)
worst = -np.inf
big = GridConfig(N=16, T=400)
for _ in range(200):
    phi = rng.uniform(-1, 1, big.N)
    law = solve_distribution(phi, big)
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        worst = max(worst, audit(phi, law, big, bernoulli_law(mu)))
print(f"  worst value {worst:.3e} vs bound {1.0 / big.T:.3e}")
