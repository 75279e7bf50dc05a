# The three interceptors, side by side.
#
# Each attack touches the qubit travelling to Bob and leaves a different
# statistical fingerprint.  The paper checker only uses the Z-basis
# correlation rules; the strict checker adds the X-basis rule, which is
# what finally catches the quieter attacks.

import numpy as np

from wshare.analytic import round_detection_probability
from wshare.attacks import AttackModel
from wshare.protocol import CheckerMode, ProtocolConfig, run_protocol

P, D = 0.5, 0.5
# One frozen model per attack serves the oracle and every run.
ATTACKS = [
    AttackModel("none"),
    AttackModel("imra"),
    AttackModel("isra", 0.5),
    AttackModel("ema"),
]


print(f"per-round detection probability at p={P}, d={D}")
print(f"{'attack':8s} {'paper':>10s} {'strict':>10s}")
for attack in ATTACKS:
    paper = round_detection_probability(attack, CheckerMode.PAPER, P, D)
    strict = round_detection_probability(attack, CheckerMode.STRICT, P, D)
    print(f"{attack.kind:8s} {paper:10.4f} {strict:10.4f}")

# The measure-resend and entangling attacks are invisible to the paper
# checker: their Z statistics are exactly W-like.  The strict X rule sees
# both.  Now confirm with live runs.

print("\nempirical abort rate over 400 runs (n=10)")
print(f"{'attack':8s} {'paper':>10s} {'strict':>10s}")
for attack_id, attack in enumerate(ATTACKS):
    rates = []
    for mode in CheckerMode:
        config = ProtocolConfig(n=10, d=D, p=P, checker_mode=mode)
        aborted = 0
        for seed in range(400):
            rng = np.random.default_rng((attack_id, seed))
            aborted += run_protocol(config, attack, rng).aborted
        rates.append(aborted / 400)
    print(f"{attack.kind:8s} {rates[0]:10.3f} {rates[1]:10.3f}")
