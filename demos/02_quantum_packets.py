"""Quantum maximum-entropy packets and their diagonal representation.

The entropy maximizer for the same four constraints is a density operator,
diagonal on a packet-adapted oscillator basis with geometric weights
R_k = 2(nu-1)^k/(nu+1)^(k+1), where nu = 2 dQ dP / hbar >= 1 measures the
packet's phase-space area.  At nu = 1 it degenerates to the pure Gaussian
wave packet.
"""

import math
from fractions import Fraction

from mepack import (
    PacketMoments,
    entropy_from_multipliers,
    entropy_quantum,
    fock_weight,
    ground_wavefunction,
    solve_multipliers_quantum,
)
from mepack.quantum import entropy_weight_sum, log_ratio_factor

print(__doc__)

sym = PacketMoments.symbolic()
mult = solve_multipliers_quantum(sym)
print("multipliers = classical values times (nu/2) ln((nu+1)/(nu-1)):")
print(f"  lam1 = {mult.lam1}")
print(f"  lam3 = {mult.lam3}")

print("\nthe common factor tends to 1 in the wide-packet limit:")
for nu in (2.0, 10.0, 100.0, 1e6):
    value = log_ratio_factor().evaluate({"nu": nu, "Lnu": math.log1p(2 / (nu - 1))}).real
    print(f"  nu = {nu:>9.0f}: factor = {value:.12f}")

print("\ngeometric weights at nu = 3 (exact): R_k = (1/2)^(k+1)")
print(" ", [str(fock_weight(Fraction(3), k)) for k in range(6)])

print("\nentropy depends on the packet only through nu:")
for nu in (1.0, 2.0, 5.0, 20.0):
    closed = entropy_quantum(nu)
    summed = entropy_weight_sum(nu)
    print(f"  nu = {nu:>4}: formula {closed:.10f}   weight sum {summed:.10f}")

packet = PacketMoments(0.7, -0.3, 1.2, 1.5, hbar=1.0)
print(f"\nLegendre-form cross-check at nu = {packet.nu_value()}:")
print(f"  ln Z + sum lam_i <constraint_i> = {entropy_from_multipliers(packet):.12f}")
print(f"  closed form                     = {entropy_quantum(packet.nu_value()):.12f}")

print("\nground state of the adapted oscillator (a minimal Gaussian packet):")
psi0 = ground_wavefunction(packet, 0.7)
print(f"  psi(Q) = {psi0:.6f}; |psi|^2 variance is dQ^2/nu, not dQ^2")
