"""Simulator for a supervised three-party entanglement-sharing protocol.

A supervisor (Charlie) distributes three-qubit W states to Alice and Bob,
randomly sampled rounds are measured to catch an eavesdropper on the
Bob-bound channel, surviving rounds are distilled into Bell pairs, and the
pairs carry single-qubit teleportation.  Each object has one import path,
the module that defines it:

* :mod:`wshare.statevec` — state vectors, W and Bell states, measurement;
* :mod:`wshare.protocol` — the protocol runs, checking rules and distillation;
* :mod:`wshare.attacks` — the attack models and Eve's recovery attempt;
* :mod:`wshare.teleport` — teleportation and the derived correction table;
* :mod:`wshare.analytic` — the per-round closed form and its enumeration oracles;
* :mod:`wshare.cli` — the ``wshare`` experiment runner.
"""

__version__ = "0.1.0"
