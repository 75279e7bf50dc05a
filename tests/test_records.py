"""The plain records are named tuples: value records compare and hash by
value and refuse assignment; the ones holding numpy arrays compare and
hash by identity.  The five records that are classes of their own refuse
assignment too, and survive pickling and copying."""

import copy
import pickle

import numpy as np
import pytest

from wshare import protocol
from wshare.attacks import AttackModel
from wshare.protocol import (DetectionDirective, DistilledPairSet, ProtocolConfig, RuleTally, RunOutcome, TrialStats,
                             run_protocol, teleport_pairs)
from wshare.statevec import Basis, BellOutcome, MeasurementBranch, StateVector, make_w_state
from wshare.teleport import TeleportResult

W = make_w_state()  # a StateVector field: states compare by identity, so both sides share it

# (record, an equal record built apart, a record differing in one field)
VALUE_RECORDS = [
    (MeasurementBranch(0, 0.5, W), MeasurementBranch(outcome=0, probability=0.5, post_state=W),
     MeasurementBranch(1, 0.5, W)),
    (BellOutcome("psi+", (0, 0), 0.25, W, None), BellOutcome("psi+", (0, 0), 0.25, W, None),
     BellOutcome("psi+", (0, 0), 0.25, W, W)),
    (TeleportResult("phi-", (1, 1), 0.25, "XZ", W, 1.0), TeleportResult("phi-", (1, 1), 0.25, "XZ", W, 1.0),
     TeleportResult("phi-", (1, 1), 0.25, "XZ", W, 0.5)),
    (DetectionDirective(3, Basis.X), DetectionDirective(position=3, basis=Basis.X), DetectionDirective(3, Basis.Z)),
    (RuleTally(2, 1), RuleTally(applied=2, violations=1), RuleTally(2)),
    (TrialStats(4, 0.5, None), TrialStats(detections=4, yield_mean=0.5, fidelity_mean=None),
     TrialStats(4, 0.5, 0.75)),
]


@pytest.mark.parametrize("record, equal, different", VALUE_RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_compare_by_value_and_refuse_assignment(record, equal, different):
    assert record is not equal
    assert record == equal and not record != equal and hash(record) == hash(equal)
    assert record != different and not record == different
    assert len({record, equal, different}) == 2
    assert repr(record) == repr(equal) and repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_array_records_compare_and_hash_by_identity():
    # A twin rebuilt from copies of the arrays holds equal values; tuple
    # comparison would compare those arrays element by element and raise.
    rand = np.random.default_rng(3)
    outcome = run_protocol(ProtocolConfig(n=12, d=0.3, p=0.5), AttackModel("ema"), rand)
    batch, _ = teleport_pairs(outcome, rand)
    assert len(batch.fidelities) > 0
    for record in (outcome, protocol._round_tables(outcome.attack), batch):
        fields = record._values() if isinstance(record, RunOutcome) else record
        twin = type(record)(*(np.copy(f) if isinstance(f, np.ndarray) else f for f in fields))
        assert record == record and not record != record
        assert twin != record and not twin == record and not record == twin
        assert len({record, twin, record}) == 2 and record in {record} and twin not in {record}


ROUND_TRIPS = {"pickle": lambda record: pickle.loads(pickle.dumps(record)), "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_classes_survive_pickle_and_deepcopy(round_trip):
    state = make_w_state()
    twin = round_trip(state)
    assert type(twin) is StateVector and twin is not state and twin.labels == state.labels
    assert twin.amplitudes.tobytes() == state.amplitudes.tobytes()
    for record in (AttackModel("isra", 0.3), AttackModel(kind="imra"), ProtocolConfig(7, 0.25, 0.5, "strict"),
                   DistilledPairSet((), ())):
        twin = round_trip(record)
        assert twin is not record and twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    model = AttackModel("isra", 0.3)
    assert protocol._round_tables(round_trip(model)) is protocol._round_tables(model)

    outcome = run_protocol(ProtocolConfig(n=40, d=0.3, p=0.5), AttackModel("imra"), np.random.default_rng(5))
    assert not outcome.aborted and len(outcome.pairs) > 1
    twin = round_trip(outcome)
    assert type(twin) is RunOutcome and twin.transcript == outcome.transcript and repr(twin) == repr(outcome)
    assert twin.config == outcome.config and twin.attack == outcome.attack and twin.eve_bits == outcome.eve_bits
    for pairs in (twin.pairs, round_trip(outcome.pairs)):
        assert type(pairs) is DistilledPairSet and pairs.positions == outcome.pairs.positions
        for (position, state), (kept, original) in zip(pairs, outcome.pairs, strict=True):
            assert position == kept and state.labels == original.labels
            assert state.amplitudes.tobytes() == original.amplitudes.tobytes()


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_round_tripped_state_stays_read_only(round_trip):
    twin = round_trip(make_w_state())
    assert not twin.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        twin.amplitudes[0] = 1.0


def test_classes_refuse_assignment_and_deletion():
    outcome = run_protocol(ProtocolConfig(n=4, d=0.5, p=0.5), AttackModel("none"), np.random.default_rng(0))
    for record, name in ((make_w_state(), "labels"), (outcome.config, "d"), (outcome.pairs, "states"),
                         (outcome, "home")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is not None
