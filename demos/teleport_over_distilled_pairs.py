"""Teleportation over distilled pairs, honest and corrupted.

A distilled (|01> + |10>)/sqrt(2) pair moves any single-qubit message with
fidelity 1 once Bob applies the right Pauli correction.  But if the pair
was 'distilled' from a round the entangling interceptor touched, Bob's
qubit is secretly twinned with Eve's ancilla and the fidelity drops to
|a|^4 + |b|^4 -- detectably worse for any superposed message.
"""

import numpy as np

from wshare.attacks import AttackModel
from wshare.protocol import ProtocolConfig, run_protocol
from wshare.teleport import build_correction_table, corrupted_channel, random_message, teleport

rng = np.random.default_rng(23)

table = build_correction_table()
print("correction table (derived, not hard-coded):")
for name, correction in table.items():
    print(f"  {name:5s} -> {correction}")

outcome = run_protocol(ProtocolConfig(n=10, d=0.2, p=0.5), AttackModel("none"), rng)
print(f"\nhonest run distilled {len(outcome.pairs)} pairs; teleporting over each:")
for position, pair in outcome.pairs:
    message = random_message(rng)
    result = teleport(message, pair, rng)
    print(f"  position {position:2d}: outcome {result.outcome_name:5s} "
          f"correction {result.correction:2s} fidelity {result.fidelity:.12f}")

print("\nsame messages through the corrupted channel (|100> + |011>)/sqrt(2):")
for _ in range(4):
    message = random_message(rng)
    a, b = message.amplitudes
    result = teleport(message, corrupted_channel(), rng)
    expected = abs(a) ** 4 + abs(b) ** 4
    print(f"  fidelity {result.fidelity:.6f}   predicted |a|^4+|b|^4 = {expected:.6f}")
