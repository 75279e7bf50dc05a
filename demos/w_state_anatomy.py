# Anatomy of the shared W state.
#
# Measuring any single qubit of (|100> + |010> + |001>)/sqrt(3) in Z gives
# 0 with probability 2/3 -- and then the other two qubits are left holding
# a maximally entangled pair.  That conditional pair is the whole reason
# the protocol distributes W states.

import numpy as np

from wshare.statevec import Basis, enumerate_qubit, make_w_state, measure_qubit

w = make_w_state()  # labels ("a", "b", "c")
print("W state amplitudes:")
for index, amp in enumerate(w.amplitudes):
    if abs(amp) > 1e-12:
        print(f"  |{index:03b}>  {amp.real:.6f}")

print("\nExact branches of a Z measurement on qubit c:")
for branch in enumerate_qubit(w, "c", Basis.Z):
    print(f"  outcome {branch.outcome}: probability {branch.probability:.4f}")
    kept = branch.post_state
    for index, amp in enumerate(kept.amplitudes):
        if abs(amp) > 1e-12:
            print(f"    |{index:03b}>  {amp.real:+.6f}")

# outcome 0 leaves (|10> + |01>)/sqrt(2) on (a, b) -- a Bell pair.
# outcome 1 leaves |00>: useless, and the protocol throws it away.

print("\nSampling the same measurement 10000 times:")
rng = np.random.default_rng(7)
zeros = sum(measure_qubit(w, "c", Basis.Z, rng).outcome == 0 for _ in range(10000))
print(f"  outcome 0 frequency: {zeros / 10000:.4f}  (expect 2/3 = {2 / 3:.4f})")
