"""One honest protocol run, narrated.

Charlie sends n W-state triples, randomly checks a fraction d of the
positions for eavesdropping, and distills Bell pairs from what survives.
With nobody listening in, checking always passes and about 2/3 of the
surviving positions turn into usable pairs.
"""

import numpy as np

from wshare.attacks import AttackModel
from wshare.protocol import ProtocolConfig, run_protocol


def main():
    config = ProtocolConfig(n=12, d=0.3, p=0.5)
    outcome = run_protocol(config, AttackModel("none"), np.random.default_rng(11))

    print("transcript:")
    for speaker, event, payload in outcome.transcript:
        print(f"  {speaker:8s} {event:20s} {payload}")

    print()
    print(f"verdict:        {outcome.report.verdict}")
    print(f"checked rounds: {len(outcome.directives)}")
    print(f"distilled:      {len(outcome.pairs)} pairs "
          f"(yield {outcome.yield_fraction:.3f} of surviving rounds)")

    # Every distilled pair really is (|01> + |10>)/sqrt(2) on (a, b).
    for position, pair in outcome.pairs:
        amps = np.round(pair.amplitudes.real, 6)
        print(f"  position {position:2d}: labels {pair.labels}, amplitudes {amps}")


if __name__ == "__main__":
    main()
