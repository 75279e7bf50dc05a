"""Closed-form expressions and their agreement with exact enumeration."""

import numpy as np
import pytest

from wshare import analytic
from wshare.analytic import (
    closed_form_round_detection,
    isra_case_probs,
    isra_success_sequence,
    round_detection_probability,
    sequence_success_probability,
    x_round_detection_given_home0,
)
from wshare.attacks import ATTACK_KINDS
from wshare.cli import main
from wshare.protocol import CheckerMode
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
    # One round: n = 1.
    assert isra_success_sequence(1, 1, 1, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert isra_success_sequence(0.3, 0.8, 0, 1) == pytest.approx(1.0)
    assert isra_success_sequence(np.sqrt(0.5), 0.5, 0.5, 1) == pytest.approx(0.875, abs=1e-12)


def test_isra_success_sequence_values():
    assert isra_success_sequence(0.4, 0.6, 0.7, 1) == 1.0 - sum(isra_case_probs(0.4, 0.6, 0.7))
    assert isra_success_sequence(1, 1, 1, 5) == pytest.approx((1 / 3) ** 5)
    with pytest.raises(ValueError):
        isra_success_sequence(0.5, 0.5, 0.5, 0)


def test_sequence_monotone_in_n():
    values = [isra_success_sequence(0.5, 0.5, 0.5, n) for n in range(1, 40)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_success_depends_on_pd_product_only():
    for y in (0.0, 0.5, 1.0):
        a = isra_success_sequence(y, 0.8, 0.25, 1)
        b = isra_success_sequence(y, 0.25, 0.8, 1)
        c = isra_success_sequence(y, 0.4, 0.5, 1)
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
    # The closed form refuses exactly what the oracle refuses.
    for per_round in (round_detection_probability, closed_form_round_detection):
        with pytest.raises(ValueError):
            per_round("isra", "paper", p=0.5, d=0.5)  # y missing
        with pytest.raises(ValueError):
            per_round("quantum-zeno", "strict", p=0.5, d=0.5)
        with pytest.raises(ValueError):
            per_round("ema", "strict", p=1.5, d=0.5)
        with pytest.raises(ValueError):
            per_round("imra", "paper", p=0.5, d=float("nan"))
        with pytest.raises(ValueError):
            per_round("none", "paper_analytic", p=0.5, d=0.5)
        with pytest.raises(ValueError):
            per_round("isra", "strict", p=0.5, d=0.5, y=1.5)
        for bad in (True, "0.5", 0.5j):
            with pytest.raises(ValueError):
                per_round("isra", "strict", p=bad, d=0.5, y=0.5)
            with pytest.raises(ValueError):
                per_round("imra", "paper", p=0.5, d=bad)
            with pytest.raises(ValueError):
                per_round("isra", "paper", p=0.5, d=0.5, y=bad)
        with pytest.raises(ValueError):
            per_round("ema", "strict", p=0.5, d=0.5, y=0.5)  # y is isra's only
    with pytest.raises(ValueError):
        x_round_detection_given_home0("isra", y=float("nan"))
    for n in (2.5, True, 0, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError):
            sequence_success_probability("imra", "strict", 0.5, 0.5, n)
        with pytest.raises(ValueError):
            isra_success_sequence(0.5, 0.5, 0.5, n)
    # Any integral n is a length, numpy's included.
    assert sequence_success_probability("imra", "strict", 0.5, 0.5, np.int64(3)) == \
        sequence_success_probability("imra", "strict", 0.5, 0.5, 3)
    assert isra_success_sequence(0.5, 0.5, 0.5, np.int64(3)) == isra_success_sequence(0.5, 0.5, 0.5, 3)


# ---------------------------------------------------------------------------
# the closed form against the oracle


def _refuse(*args, **kwargs):
    raise AssertionError("the enumeration oracle must not call the closed form")


@pytest.mark.parametrize("mode", list(CheckerMode))
@pytest.mark.parametrize("kind,ys", [("none", (None,)), ("imra", (None,)), ("ema", (None,)),
                                     ("isra", (0.0, 0.3, 0.5, 1.0))])
def test_closed_form_matches_the_oracle(kind, ys, mode, monkeypatch):
    cases = [(y, p, d) for y in ys for p in (0.0, 0.3, 0.5, 1.0) for d in (0.0, 0.5, 1.0)]
    closed = [closed_form_round_detection(kind, mode, p, d, y) for y, p, d in cases]
    if kind == "isra" and mode is CheckerMode.PAPER:
        assert closed == [sum(isra_case_probs(y, p, d)) for y, p, d in cases]
    monkeypatch.setattr(analytic, "closed_form_round_detection", _refuse)
    monkeypatch.setattr(analytic, "isra_case_probs", _refuse)
    for (y, p, d), value in zip(cases, closed):
        assert abs(value - round_detection_probability(kind, mode, p, d, y)) <= 1e-12, (y, p, d)


def test_sweep_and_curves_never_enumerate(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(analytic, "_violation_probability", lambda *args, **kwargs: calls.append(args))
    out = str(tmp_path / "rows.txt")
    for kind in ATTACK_KINDS:
        y_grid = ["--y-values", "0,1"] if kind == "isra" else []
        for mode in CheckerMode:
            flags = ["--attack", kind, "--mode", mode.value, *y_grid, "--n-values", "1,2",
                     "--d-values", "0.5,1", "--p-values", "0,0.5", "--out", out]
            assert main(["sweep", *flags, "--trials", "100"]) == 0
            assert main(["curves", *flags]) == 0
    assert calls == []
