"""The plain records are named tuples: value records compare and hash by
value and refuse assignment; the ones holding numpy arrays compare and
hash by identity."""

import numpy as np
import pytest

from wshare import protocol
from wshare.attacks import AttackModel
from wshare.protocol import DetectionDirective, ProtocolConfig, RuleTally, TrialStats, run_protocol, teleport_pairs
from wshare.statevec import Basis, BellOutcome, MeasurementBranch, make_w_state
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
    for record in (outcome.rounds, protocol._round_tables(outcome.attack), batch):
        twin = type(record)(*(np.copy(f) if isinstance(f, np.ndarray) else f for f in record))
        assert record == record and not record != record
        assert twin != record and not twin == record and not record == twin
        assert len({record, twin, record}) == 2 and record in {record} and twin not in {record}
