# How fast does a store-resend eavesdropper get caught?
#
# A single checked round catches the fake qubit with probability
# p*d*(1+y^2)/3, so the chance of surviving a whole n-round sequence
# decays geometrically.  It never hits zero for finite n -- the protocol
# is quasi-secure, not absolutely secure -- but 13 fully-checked rounds
# already push the escape probability below one in a million.

from wshare.analytic import closed_form_round_detection
from wshare.attacks import AttackModel


def escape(y, p, d, n):
    """S = (1 - q)^n: rounds are independent, q the per-round detection."""
    return (1 - closed_form_round_detection(AttackModel("isra", y), "paper", p, d)) ** n


y = p = d = 1.0
print("per-round case probabilities at y=1, p=1, d=1:")
caught_z1 = p * d * y * y / 3  # home 1 while Bob reads the fake qubit as 1
caught_z0 = p * d / 3  # home 0 with the Z anticorrelation broken
print(f"  caught via home-0 rule: {caught_z0:.4f}")
print(f"  caught via home-1 rule: {caught_z1:.4f}")
print(f"  survives the round:     {escape(y, p, d, 1):.4f}")

print("\nsequence survival S(n), worst case (y=1, p=1, d=1):")
for n in (1, 2, 5, 10, 13, 20):
    s = escape(1.0, 1.0, 1.0, n)
    bar = "#" * int(round(40 * s))
    print(f"  n={n:3d}  S={s:.2e}  {bar}")

print("\nhalf-hearted checking still wins, just slower (y=0.5, p=0.5, d=0.5):")
for n in (1, 5, 10, 20, 40, 80):
    s = escape(0.5, 0.5, 0.5, n)
    bar = "#" * int(round(40 * s))
    print(f"  n={n:3d}  S={s:.2e}  {bar}")

# The gentler the fake qubit (small y), the slower the decay: y only enters
# through the 1+y^2 factor, so even y=0 is caught at rate p*d/3 per round.
