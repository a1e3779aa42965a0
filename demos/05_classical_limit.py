"""The wide-packet limit: quantum packets shadow classical ones as nu grows.

Three signatures of the limit: the quantum partition function reduces to
the classical one once the reference cell is v = h; the multipliers lose
their (nu/2) ln((nu+1)/(nu-1)) dressing; and every correction to the
averaged dynamics dies off as 1/nu^2.  Sharp trajectories are never
needed: it is the *large*-variance regime that is classical here.
"""

import math

import numpy as np

from mepack import (
    ClassicalMultipliers,
    PolynomialPotential,
    partition_classical,
    partition_quantum,
    quantum_correction,
)
from mepack.algebra import Expr
from mepack.quantum import QuantumMultipliers, log_ratio_factor

print(__doc__)

lam = [Expr.symbol(f"lam{i}") for i in (1, 2, 3, 4)]
zq = partition_quantum(QuantumMultipliers(*lam))
v_h = Expr.number(2) * Expr.symbol("pi") * Expr.symbol("hbar")
zc = partition_classical(ClassicalMultipliers.symbols(volume=v_h))
print("leading small-hbar term of the quantum partition function equals the")
print(f"classical one with v = h: {zq.leading_small_hbar() == zc}")

b = {"lam1": 0.3, "lam2": -0.2, "lam3": 0.9, "lam4": 1.8, "pi": math.pi}
print("\nnumeric ratio Z_quantum / Z_classical(v=h):")
for hbar in (1.0, 0.1, 0.01, 0.001):
    ratio = zq.evaluate(dict(b, hbar=hbar)) / zc.evaluate(dict(b, hbar=hbar)).real
    print(f"  hbar = {hbar:>6}: ratio = {ratio:.10f}")

print("\nmultiplier dressing (nu/2) ln((nu+1)/(nu-1)) - 1:")
for nu in (10.0, 100.0, 1e4, 1e6):
    f = log_ratio_factor().evaluate({"nu": nu, "Lnu": math.log1p(2 / (nu - 1))}).real
    print(f"  nu = {nu:>9.0f}: {f - 1.0:.3e}")

print("\nfifth-order correction magnitude vs nu (quartic potential):")
corr = quantum_correction(PolynomialPotential.symbolic(4), 5)
base = {"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "m": 1.0,
        "V0": 0.0, "V1": 0.0, "V2": 0.0, "V3": 1.0, "V4": 1.0}
nus = [10.0, 20.0, 40.0, 80.0]
values = []
for nu in nus:
    values.append(abs(corr.evaluate(dict(base, nu=nu))))
    print(f"  nu = {nu:>4}: |correction| = {values[-1]:.6e}")
slope = np.polyfit(np.log(nus), np.log(values), 1)[0]
print(f"fitted log-log slope: {slope:.6f}  (exactly -2 for a pure 1/nu^2 law)")
