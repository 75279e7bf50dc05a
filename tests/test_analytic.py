"""Closed-form expressions and their agreement with exact enumeration."""

import numpy as np
import pytest

from wshare import analytic, protocol
from wshare.analytic import (
    closed_form_round_detection,
    round_detection_probability,
    x_round_detection_given_home0,
)
from wshare.attacks import ATTACK_KINDS, AttackModel
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


def _isra(y, p, d):
    """The store-resend per-round detection probability q under the paper checker."""
    return closed_form_round_detection(AttackModel("isra", y), "paper", p, d)


def test_isra_case_probs_values():
    # The two Z-rule cases: home 0 with the anticorrelation broken (p*d/3)
    # and home 1 with the fake qubit read as 1 (p*d*y^2/3).
    assert _isra(0, 1, 1) == pytest.approx(1 / 3)
    assert _isra(1, 1, 1) - _isra(0, 1, 1) == pytest.approx(1 / 3)
    assert _isra(0, 0.7, 0.4) == pytest.approx(0.7 * 0.4 / 3)
    assert _isra(0.5, 0, 0.4) == 0.0
    with pytest.raises(ValueError):
        _isra(1.2, 0.5, 0.5)


def test_isra_success_single_values():
    # One round escapes with 1 - q.
    assert 1 - _isra(1, 1, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert 1 - _isra(0.3, 0.8, 0) == pytest.approx(1.0)
    assert 1 - _isra(np.sqrt(0.5), 0.5, 0.5) == pytest.approx(0.875, abs=1e-12)


def test_isra_success_sequence_values():
    # The home-1 term plus the home-0 term, in that order: the float order
    # the sweep and curves outputs were captured with.
    assert _isra(0.4, 0.6, 0.7) == 0.6 * 0.7 * 0.4 * 0.4 / 3.0 + 0.6 * 0.7 / 3.0
    assert (1 - _isra(1, 1, 1)) ** 5 == pytest.approx((1 / 3) ** 5)


def test_sequence_monotone_in_n():
    q = _isra(0.5, 0.5, 0.5)
    values = [(1 - q) ** n for n in range(1, 40)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_success_depends_on_pd_product_only():
    for y in (0.0, 0.5, 1.0):
        a = _isra(y, 0.8, 0.25)
        b = _isra(y, 0.25, 0.8)
        c = _isra(y, 0.4, 0.5)
        assert a == pytest.approx(b, abs=1e-15)
        assert a == pytest.approx(c, abs=1e-15)


# ---------------------------------------------------------------------------
# enumeration oracles vs closed forms


def test_isra_oracle_matches_formula_on_grid():
    grid = (0.0, 0.5, 1.0)
    for y in grid:
        for p in grid:
            for d in grid:
                enumerated = round_detection_probability(AttackModel("isra", y), "paper", p, d)
                formula = p * d * (1 + y * y) / 3
                assert enumerated == pytest.approx(formula, abs=1e-9)


def test_honest_round_never_detected():
    for mode in ("paper", "strict"):
        assert round_detection_probability(AttackModel("none"), mode, p=0.5, d=1.0) == pytest.approx(
            0.0, abs=1e-12
        )


def test_imra_invisible_to_analytic_checker():
    # Both resend branches satisfy the Z rules, so the analytic checker
    # never fires on the measure-resend attack.
    assert round_detection_probability(AttackModel("imra"), "paper", 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # the strict X rule does catch it
    assert round_detection_probability(AttackModel("imra"), "strict", 0.0, 1.0) > 0.1


def test_ema_invisible_to_analytic_checker():
    assert round_detection_probability(AttackModel("ema"), "paper", 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert round_detection_probability(AttackModel("ema"), "strict", 0.0, 1.0) > 0.1


def test_x_round_detection_is_one_half():
    # Frozen oracle values: in a strict X round with home outcome 0, each
    # attack trips the Ra = Rb rule with probability exactly 1/2.  For the
    # store-resend attack the value is independent of y (Alice's qubit is
    # maximally mixed given home 0, so her X outcome is a fair coin).
    assert x_round_detection_given_home0(AttackModel("ema")) == pytest.approx(0.5, abs=1e-12)
    assert x_round_detection_given_home0(AttackModel("imra")) == pytest.approx(0.5, abs=1e-12)
    for y in (0.0, 0.3, 0.6, 1.0):
        assert x_round_detection_given_home0(AttackModel("isra", y=y)) == pytest.approx(0.5, abs=1e-12)


# The oracle's values at p = 0.3, d = 0.7 (y = 0.5 for isra), frozen bit
# for bit: how the oracle reaches its registers must not move them.
FROZEN_ORACLE = {
    ("none", "paper"): 0.0, ("none", "strict"): 0.0,
    ("imra", "paper"): 0.0, ("imra", "strict"): 0.16333333333333333,
    ("isra", "paper"): 0.08750000000000004, ("isra", "strict"): 0.2508333333333334,
    ("ema", "paper"): 0.0, ("ema", "strict"): 0.16333333333333336,
}


def test_the_oracle_never_reads_the_round_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration oracle must not read the round tables")

    monkeypatch.setattr(protocol, "_compile_tables", refuse)
    monkeypatch.setattr(protocol, "_round_tables", refuse)  # cached tables included
    for (kind, mode), value in FROZEN_ORACLE.items():
        attack = AttackModel(kind, 0.5 if kind == "isra" else None)
        assert round_detection_probability(attack, mode, 0.3, 0.7) == value, (kind, mode)
        if kind != "none":
            assert x_round_detection_given_home0(attack) == pytest.approx(0.5, abs=1e-12)


def test_strict_dominates_analytic_per_round():
    for attack in (AttackModel("imra"), AttackModel("isra", 0.5), AttackModel("ema")):
        analytic_rate = round_detection_probability(attack, "paper", p=0.5, d=0.5)
        strict_rate = round_detection_probability(attack, "strict", p=0.5, d=0.5)
        assert strict_rate >= analytic_rate - 1e-12


def test_oracle_validates_arguments():
    # The closed form refuses exactly what the oracle refuses; the attack's
    # kind and y were checked when its model was built.
    for per_round in (round_detection_probability, closed_form_round_detection):
        with pytest.raises(ValueError):
            per_round(AttackModel("ema"), "strict", p=1.5, d=0.5)
        with pytest.raises(ValueError):
            per_round(AttackModel("imra"), "paper", p=0.5, d=float("nan"))
        with pytest.raises(ValueError):
            per_round(AttackModel("none"), "paper_analytic", p=0.5, d=0.5)
        for bad in (True, "0.5", 0.5j):
            with pytest.raises(ValueError):
                per_round(AttackModel("isra", 0.5), "strict", p=bad, d=0.5)
            with pytest.raises(ValueError):
                per_round(AttackModel("imra"), "paper", p=0.5, d=bad)


# ---------------------------------------------------------------------------
# the closed form against the oracle


def _refuse(*args, **kwargs):
    raise AssertionError("the enumeration oracle must not call the closed form")


@pytest.mark.parametrize("mode", list(CheckerMode))
@pytest.mark.parametrize("kind,ys", [("none", (None,)), ("imra", (None,)), ("ema", (None,)),
                                     ("isra", (0.0, 0.3, 0.5, 1.0))])
def test_closed_form_matches_the_oracle(kind, ys, mode, monkeypatch):
    cases = [(y, p, d) for y in ys for p in (0.0, 0.3, 0.5, 1.0) for d in (0.0, 0.5, 1.0)]
    closed = [closed_form_round_detection(AttackModel(kind, y), mode, p, d) for y, p, d in cases]
    if kind == "isra" and mode is CheckerMode.PAPER:
        assert closed == [sum((p * d * y * y / 3.0, p * d / 3.0)) for y, p, d in cases]
    monkeypatch.setattr(analytic, "closed_form_round_detection", _refuse)
    for (y, p, d), value in zip(cases, closed):
        assert abs(value - round_detection_probability(AttackModel(kind, y), mode, p, d)) <= 1e-12, (y, p, d)


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
