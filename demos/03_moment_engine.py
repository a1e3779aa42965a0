"""The diagonal-representation moment engine, against an independent oracle.

Any polynomial in the noncommuting q, p is averaged in three steps:
substitute the ladder-operator forms, normal order, keep the balanced
words (a polynomial in the number operator), and sum against the
geometric weights.  Every value below is replayed on a truncated
Fock-matrix representation that never touches the symbolic machinery.
"""

from mepack import (
    PacketMoments,
    WeylPolynomial,
    expectation_quantum,
    fock_expectation,
    fock_state,
    moment_classical,
    restore_hbar,
)
from mepack.algebra import diagonal_part, parse_weyl, to_ladder

print(__doc__)

sym = PacketMoments.symbolic()

print("pipeline for q*p + p*q:")
ladder = to_ladder(parse_weyl("q*p + p*q"))
print(f"  ladder form: {ladder}")
# {m: c} for the balanced words c Ad^m A^m, which act as k(k-1)...(k-m+1)
for m, c in sorted(diagonal_part(ladder).items()):
    print(f"  balanced part, m = {m}: {c}")
print(f"  average: {expectation_quantum(sym, parse_weyl('q*p + p*q'))}")

print("\nlandmark expectations (hbar-display form):")
for text in ("q*p", "q^3*p", "p*q^2*p"):
    value = restore_hbar(expectation_quantum(sym, parse_weyl(text)))
    print(f"  <{text}> = {value}")

print("\nordering matters only at second order in 1/nu:")
pq2p = expectation_quantum(sym, parse_weyl("p*q^2*p"))
classical = moment_classical(sym, parse_weyl("q^2*p^2").classical())
print(f"  <p q^2 p> - <q^2 p^2>_classical = {pq2p - classical}")

packet = PacketMoments(0.6, -0.4, 1.1, 1.5, hbar=1.0)
state = fock_state(packet, degree=6)
bindings = packet.bindings()
print(f"\nnumeric packet (nu = {packet.nu_value():.2f}), Fock cutoff {state.cutoff}:")
print(f"{'word':>10} {'engine':>28} {'oracle':>28}")
for word in ("qp", "pq", "qppq", "pqqp", "qqqppp"):
    engine = expectation_quantum(packet, WeylPolynomial.from_word(word)).evaluate(bindings)
    oracle = fock_expectation(state, [(1.0, word)])
    print(f"{word:>10} {engine:>28.12f} {oracle:>28.12f}")
