"""Averaged equations of motion and the size of quantum corrections.

The Taylor engine iterates the equation of motion at t = 0 in both the
Poisson and the Heisenberg algebra.  Averaged over a packet, the two
hierarchies coincide exactly through fourth order; the first residual,
at fifth order for a quartic potential, scales as 1/nu^2.
"""

import math

from mepack import (
    PacketMoments,
    PolynomialPotential,
    averaged_derivatives,
    derivatives_classical,
    derivatives_quantum,
    evolve_quadratic,
    propagate,
    quantum_correction,
)
from mepack.algebra import Expr, format_expression, format_nu_polynomial, format_phase, format_weyl

print(__doc__)

quartic = PolynomialPotential.symbolic(4)
sym = PacketMoments.symbolic()

ct = derivatives_classical(quartic, 2)
qt = derivatives_quantum(quartic, 2)
print("second time derivative of p (note the factor ordering):")
print(f"  classical: {format_phase(ct.p[1])}")
print(f"  quantum:   {format_weyl(qt.p[1])}")

avg = averaged_derivatives(ct, sym)
print(f"\naveraged first-order equation:\n  dP/dt = {format_expression(avg.p[0])}")

print("\nquantum minus classical averaged d^n P/dt^n:")
for order in (1, 2, 3, 4, 5):
    corr = quantum_correction(quartic, order)
    print(f"  order {order}: {format_nu_polynomial(corr)}")

fifth = averaged_derivatives(derivatives_quantum(quartic, 5), sym).p[-1]
group = fifth
for name, power in (("V3", 1), ("V4", 1), ("dQ", 2), ("dP", 2), ("Q", 0), ("P", 0)):
    group = group.coefficient_of(name, power)

factor = format_nu_polynomial(group * Expr.number(2) * Expr.symbol("m") ** 3)
print(f"\nthe V3*V4 block of the fifth derivative carries dQ^2*dP^2*({factor})")

print("\nfree-particle spreading (closed form):")
packet = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
free = PolynomialPotential(1.0, (0.0,))
for t in (0.0, 0.5, 1.0, 2.0):
    out = evolve_quadratic(packet, free, t)
    print(f"  t = {t}: dQ = {float(out.dQ):.6f}, dP = {float(out.dP):.6f}")

print("\nquartic well, Taylor propagation of the averaged moments:")
packet = PacketMoments(0.4, 0.2, math.sqrt(0.1), math.sqrt(0.1), hbar=0.02)  # nu = 10
pot = PolynomialPotential(1.0, (0.0, 0.0, 0.0, 0.0, 1.0))
traj = propagate(packet, pot, [0.0, 0.1, 0.2, 0.3], order=6, kind="quantum")
print(f"  remainder proxy: {traj.remainder_estimate:.2e}")
for t, q, p, dq, dp, nu, s in traj.rows():
    print(f"  t = {t}: Q = {q:.8f}, P = {p:.8f}, dQ = {dq:.6f}, nu = {nu:.4f}, S = {s:.6f}")
