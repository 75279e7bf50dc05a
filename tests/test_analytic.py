"""Closed-form expressions and their agreement with exact enumeration."""

import numpy as np
import pytest

from wshare import attacks
from wshare.analytic import (
    isra_case_probs,
    isra_success_sequence,
    isra_success_single,
    round_detection_probability,
    sequence_success_probability,
    x_round_detection_given_home0,
)
from wshare.statevec import Basis, enumerate_qubit, make_w_state


def test_bell_yield_value():
    # A surviving round distills into a Bell pair with probability 2/3.
    branches = enumerate_qubit(make_w_state(), "c", Basis.Z)
    assert branches[0].probability == pytest.approx(2 / 3, abs=1e-12)
    assert branches[1].probability == pytest.approx(1 / 3, abs=1e-12)


def test_imra_outcome_probs():
    # Eve's Z outcome on an intercepted W travel qubit: 0 w.p. 2/3, 1 w.p. 1/3.
    p0, p1 = 2 / 3, 1 / 3
    branches = enumerate_qubit(make_w_state(), "b", Basis.Z)
    assert branches[0].probability == pytest.approx(p0, abs=1e-12)
    assert branches[1].probability == pytest.approx(p1, abs=1e-12)


def test_isra_case_probs_values():
    assert isra_case_probs(1, 1, 1) == (pytest.approx(1 / 3), pytest.approx(1 / 3))
    assert isra_case_probs(0, 0.7, 0.4) == (0.0, pytest.approx(0.7 * 0.4 / 3))
    assert isra_case_probs(0.5, 0, 0.4) == (0.0, 0.0)
    with pytest.raises(ValueError):
        isra_case_probs(1.2, 0.5, 0.5)


def test_isra_success_single_values():
    assert isra_success_single(1, 1, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert isra_success_single(0.3, 0.8, 0) == pytest.approx(1.0)
    assert isra_success_single(np.sqrt(0.5), 0.5, 0.5) == pytest.approx(0.875, abs=1e-12)


def test_isra_success_sequence_values():
    assert isra_success_sequence(0.4, 0.6, 0.7, 1) == pytest.approx(
        isra_success_single(0.4, 0.6, 0.7)
    )
    assert isra_success_sequence(1, 1, 1, 5) == pytest.approx((1 / 3) ** 5)
    with pytest.raises(ValueError):
        isra_success_sequence(0.5, 0.5, 0.5, 0)


def test_sequence_monotone_in_n():
    values = [isra_success_sequence(0.5, 0.5, 0.5, n) for n in range(1, 40)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_success_depends_on_pd_product_only():
    for y in (0.0, 0.5, 1.0):
        a = isra_success_single(y, 0.8, 0.25)
        b = isra_success_single(y, 0.25, 0.8)
        c = isra_success_single(y, 0.4, 0.5)
        assert a == pytest.approx(b, abs=1e-15)
        assert a == pytest.approx(c, abs=1e-15)


# ---------------------------------------------------------------------------
# enumeration oracles vs closed forms


def test_isra_oracle_matches_formula_on_grid():
    grid = (0.0, 0.5, 1.0)
    for y in grid:
        for p in grid:
            for d in grid:
                enumerated = round_detection_probability("isra", "paper", p, d, y)
                formula = p * d * (1 + y * y) / 3
                assert enumerated == pytest.approx(formula, abs=1e-9)


def test_honest_round_never_detected():
    for mode in ("paper", "strict"):
        assert round_detection_probability("none", mode, p=0.5, d=1.0) == pytest.approx(
            0.0, abs=1e-12
        )


def test_imra_invisible_to_analytic_checker():
    # Both resend branches satisfy the Z rules, so the analytic checker
    # never fires on the measure-resend attack.
    assert round_detection_probability("imra", "paper", 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # the strict X rule does catch it
    assert round_detection_probability("imra", "strict", 0.0, 1.0) > 0.1


def test_ema_invisible_to_analytic_checker():
    assert round_detection_probability("ema", "paper", 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert round_detection_probability("ema", "strict", 0.0, 1.0) > 0.1


def test_x_round_detection_is_one_half():
    # Frozen oracle values: in a strict X round with home outcome 0, each
    # attack trips the Ra = Rb rule with probability exactly 1/2.  For the
    # store-resend attack the value is independent of y (Alice's qubit is
    # maximally mixed given home 0, so her X outcome is a fair coin).
    assert x_round_detection_given_home0("ema") == pytest.approx(0.5, abs=1e-12)
    assert x_round_detection_given_home0("imra") == pytest.approx(0.5, abs=1e-12)
    for y in (0.0, 0.3, 0.6, 1.0):
        assert x_round_detection_given_home0("isra", y=y) == pytest.approx(0.5, abs=1e-12)


def test_strict_dominates_analytic_per_round():
    for kind, y in (("imra", None), ("isra", 0.5), ("ema", None)):
        analytic_rate = round_detection_probability(kind, "paper", p=0.5, d=0.5, y=y)
        strict_rate = round_detection_probability(kind, "strict", p=0.5, d=0.5, y=y)
        assert strict_rate >= analytic_rate - 1e-12


def test_sequence_success_probability():
    direct = sequence_success_probability("isra", "paper", p=0.5, d=0.5, n=10, y=0.5)
    formula = isra_success_sequence(0.5, 0.5, 0.5, 10)
    assert direct == pytest.approx(formula, abs=1e-9)
    with pytest.raises(ValueError):
        sequence_success_probability("isra", "strict", p=0.5, d=0.5, n=0, y=0.5)


def test_oracle_validates_arguments():
    with pytest.raises(ValueError):
        round_detection_probability("isra", "paper", p=0.5, d=0.5)  # y missing
    with pytest.raises(ValueError):
        round_detection_probability("quantum-zeno", "strict", p=0.5, d=0.5)
    with pytest.raises(ValueError):
        round_detection_probability("ema", "strict", p=1.5, d=0.5)
    with pytest.raises(ValueError):
        round_detection_probability("none", "paper_analytic", p=0.5, d=0.5)
    with pytest.raises(ValueError):
        round_detection_probability("isra", "strict", p=0.5, d=0.5, y=1.5)
    with pytest.raises(ValueError):
        x_round_detection_given_home0("isra", y=float("nan"))
    with pytest.raises(ValueError):
        round_detection_probability("ema", "strict", p=0.5, d=0.5, y=0.5)  # y is isra's only
    for n in (2.5, True, 0):
        with pytest.raises(ValueError):
            sequence_success_probability("imra", "strict", 0.5, 0.5, n)
        with pytest.raises(ValueError):
            isra_success_sequence(0.5, 0.5, 0.5, n)


def test_oracle_starts_from_the_protocol_template():
    # The oracle's rounds are the engine's registers, so the intercept cache
    # is hit, not refilled, on every call after the first.
    attacks._ema_joint.cache_clear()
    for _ in range(3):
        round_detection_probability("ema", "strict", 0.5, 0.5)
    info = attacks._ema_joint.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
