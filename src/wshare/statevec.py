"""Dense pure-state simulator for small labeled qubit registers.

Conventions used throughout the package:

* A register is an ordered tuple of distinct string labels.  Amplitude
  indices are big-endian in that order: bit i of the index belongs to
  label i, so ``|1000>`` over labels ``(a, b, c, e)`` puts the 1 on ``a``
  and lives at flat index 8.
* Measuring a qubit collapses it but keeps it in the register; callers
  that want it gone use :func:`discard_qubit` afterwards.
* X eigenstates are ``|+> = (|0>+|1>)/sqrt(2)`` and ``|-> = (|0>-|1>)/sqrt(2)``.
  Outcome bit 0 always means the first eigenstate of the basis (``|0>``
  or ``|+>``), bit 1 the second.
* Randomness always comes from an explicit ``numpy.random.Generator``;
  nothing in this module touches global RNG state.  Its annotations are
  strings, so that importing the package does not load ``numpy.random``.
* A branch of probability at or below ``_ZERO_PROB`` is never sampled: a
  draw that lands on one takes the other branch instead.
* A sum along an axis of two to four entries (a Bell row's weights, a
  residual's squares) is written as column adds in numpy's own left-to-right
  order (:func:`_row_sums`), which keeps numpy's bits: numpy's reductions
  pay microseconds per call, several times the adds on so short an axis.
* Records are immutable: the plain ones are named tuples, and the five
  that validate, derive or cache are plain classes on :class:`_Record`.
  No module imports ``dataclasses``, whose import and generated methods
  would cost every CLI call milliseconds of set-up.
"""

import enum
from typing import NamedTuple

import numpy as np

_RSQRT2 = 1.0 / np.sqrt(2.0)
# Branches with squared norm at or below this are treated as impossible.
_ZERO_PROB = 1e-15


class Basis(enum.Enum):
    """Single-qubit measurement basis: computational Z or Hadamard X."""

    Z = "Z"
    X = "X"


class _Record:
    """Base of the package's five immutable record classes.

    A record sets its fields once, in ``__init__``, through
    ``object.__setattr__``; assigning or deleting an attribute afterwards
    raises ``AttributeError``.  ``_fields`` names the fields in order: the
    repr shows them (less ``_unshown``), records compare and hash by them
    (those holding arrays by identity instead), and pickling and copying
    rebuild a record from them through :meth:`_trusted`, without checking
    them again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set every field, in ``_fields`` order; only construction calls it."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A record holding ``values``, one per field, as they are."""
        record = object.__new__(cls)
        record._set(*values)
        return record

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._trusted, self._values()

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class StateVector(_Record):
    """Normalized pure state of a labeled qubit register.

    ``amplitudes`` holds the 2**k complex amplitudes in big-endian label
    order.  Instances are immutable; every operation returns a new one.
    States compare and hash by identity.
    """

    __slots__ = _fields = ("amplitudes", "labels")
    __eq__, __hash__ = object.__eq__, object.__hash__  # comparing the arrays would raise

    def __init__(self, amplitudes: np.ndarray, labels: tuple[str, ...]) -> None:
        labels = tuple(str(l) for l in labels)
        if not labels:
            raise ValueError("a register needs at least one qubit")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {labels}")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"{len(labels)} labels need {2 ** len(labels)} amplitudes, "
                f"got {amps.shape[0]}"
            )
        norm = float(np.sqrt(np.vdot(amps, amps).real))
        if not abs(norm - 1.0) <= 1e-9:  # NaN-safe: a NaN or infinite norm fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm ** 2:.6g}")
        amps = amps / norm  # fresh array, exact unit norm
        amps.flags.writeable = False
        self._set(amps, labels)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        """Register position of a label, raising for unknown labels."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no qubit labeled {label!r} in register {self.labels}") from None

    def _split(self, ax: int) -> np.ndarray:
        """View shaped (before, 2, after) with the middle axis = qubit ``ax``."""
        return self.amplitudes.reshape(1 << ax, 2, -1)

    def _rows(self, ax: int) -> np.ndarray:
        """Amplitudes shaped (2, rest): row j holds qubit ``ax`` = j, the
        other qubits flattened in register order."""
        return self._split(ax).transpose(1, 0, 2).reshape(2, -1)

    @classmethod
    def _trusted(cls, amps: np.ndarray, labels: tuple[str, ...]) -> "StateVector":
        """Internal constructor for amplitudes already known to be valid.

        Skips the label and normalization checks; ``amps`` must be a fresh
        unit-norm array the caller gives up ownership of.
        """
        amps.flags.writeable = False
        return super()._trusted(amps, labels)


class MeasurementBranch(NamedTuple):
    """One branch of a single-qubit measurement.

    ``outcome`` is 0 for the first basis eigenstate and 1 for the second;
    ``post_state`` keeps the measured qubit in the register, collapsed and
    renormalized.  A zero-probability branch carries ``post_state=None``.
    """

    outcome: int
    probability: float
    post_state: StateVector | None


BELL_NAMES = ("psi+", "psi-", "phi+", "phi-")

# Amplitude matrices m[i, j] = <ij|bell>; order matches BELL_NAMES.
_BELL_MATRICES = (
    np.array([[0.0, _RSQRT2], [_RSQRT2, 0.0]], dtype=complex),
    np.array([[0.0, _RSQRT2], [-_RSQRT2, 0.0]], dtype=complex),
    np.array([[_RSQRT2, 0.0], [0.0, _RSQRT2]], dtype=complex),
    np.array([[_RSQRT2, 0.0], [0.0, -_RSQRT2]], dtype=complex),
)

class BellOutcome(NamedTuple):
    """One branch of a two-qubit Bell measurement.

    ``post_state`` is the full register with the measured pair collapsed
    onto the observed Bell state.  ``residual`` is the state of the other
    qubits alone (normalized, phase preserved), or ``None`` when the pair
    was the whole register or the branch has zero probability.
    """

    name: str
    bits: tuple[int, int]
    probability: float
    post_state: StateVector | None
    residual: StateVector | None


# ---------------------------------------------------------------------------
# constructors


def make_basis_state(bits, labels) -> StateVector:
    """Computational basis ket |bits> over the given labels.

    ``bits`` is a sequence of 0/1 ints; anything else, a string included, raises ValueError.
    """
    bits = list(bits)
    labels = tuple(labels)
    if len(bits) != len(labels):
        raise ValueError(f"{len(bits)} bits but {len(labels)} labels")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, labels)


def make_message_state(a: complex, b: complex, label: str = "m") -> StateVector:
    """Single-qubit message a|0> + b|1>; (a, b) must be normalized to 1e-9."""
    return StateVector(np.array([a, b], dtype=complex), (label,))


def make_w_state() -> StateVector:
    """The three-qubit W state (|100> + |010> + |001>)/sqrt(3) on ("a", "b", "c")."""
    amps = np.zeros(8, dtype=complex)
    amps[[4, 2, 1]] = 1.0 / np.sqrt(3.0)
    return StateVector(amps, ("a", "b", "c"))


# ---------------------------------------------------------------------------
# register surgery


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Product state; s2's qubits are appended after s1's."""
    overlap = set(s1.labels) & set(s2.labels)
    if overlap:
        raise ValueError(f"label collision in tensor product: {sorted(overlap)}")
    amps = np.multiply.outer(s1.amplitudes, s2.amplitudes).reshape(-1)
    return StateVector._trusted(amps, s1.labels + s2.labels)


def relabel(s: StateVector, mapping: dict[str, str]) -> StateVector:
    """Rename register labels without touching amplitudes."""
    unknown = set(mapping) - set(s.labels)
    if unknown:
        raise ValueError(f"cannot relabel unknown qubits: {sorted(unknown)}")
    new_labels = tuple(mapping.get(l, l) for l in s.labels)
    if len(set(new_labels)) != len(new_labels):
        raise ValueError(f"relabeling collides: {new_labels}")
    return StateVector._trusted(s.amplitudes, new_labels)


def discard_qubit(s: StateVector, q: str) -> StateVector:
    """Drop a qubit that has collapsed to a Z eigenstate.

    Only valid when one of the qubit's two slices carries (essentially) all
    of the norm, i.e. after a Z measurement; anything still entangled or in
    superposition raises.
    """
    if s.num_qubits == 1:
        raise ValueError("cannot discard the last qubit of a register")
    ax = s.axis(q)
    t = s._split(ax)
    w0 = float(np.sum(np.abs(t[:, 0, :]) ** 2))
    w1 = 1.0 - w0
    if min(w0, w1) > 1e-12:
        raise ValueError(f"qubit {q!r} is not collapsed to a basis state (weights {w0:.3g}/{w1:.3g})")
    kept = t[:, 0, :] if w0 >= w1 else t[:, 1, :]
    amps = kept.reshape(-1) / np.sqrt(max(w0, w1))
    labels = tuple(l for l in s.labels if l != q)
    return StateVector._trusted(amps, labels)


# ---------------------------------------------------------------------------
# gates


def apply_cnot(s: StateVector, control: str, target: str) -> StateVector:
    """CNOT: flip the target wherever the control is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    n = s.num_qubits
    control_bit, target_bit = 1 << (n - 1 - s.axis(control)), 1 << (n - 1 - s.axis(target))
    index = np.arange(1 << n)
    source = np.where(index & control_bit, index ^ target_bit, index)
    return StateVector._trusted(s.amplitudes[source], s.labels)


# ---------------------------------------------------------------------------
# measurement


def _branch_weights(t: np.ndarray, basis: Basis) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Probability of outcome 0 plus the (unnormalized) projections.

    ``t`` is the (before, 2, after) view with the measured qubit in the
    middle.  For Z the projections are just the slices; for X they are the
    |+> and |-> components.
    """
    if basis is Basis.Z:
        p0 = float(np.sum(np.abs(t[:, 0, :]) ** 2))
        return p0, t[:, 0, :], t[:, 1, :]
    proj_plus = (t[:, 0, :] + t[:, 1, :]) * _RSQRT2
    proj_minus = (t[:, 0, :] - t[:, 1, :]) * _RSQRT2
    p0 = float(np.sum(np.abs(proj_plus) ** 2))
    return p0, proj_plus, proj_minus


def _collapsed(s: StateVector, ax: int, basis: Basis, outcome: int,
               projection: np.ndarray, probability: float) -> StateVector:
    """Rebuild the register with qubit ``ax`` collapsed onto ``outcome``.

    ``probability`` is above ``_ZERO_PROB``: callers never pick an
    impossible branch.
    """
    post = np.zeros((projection.shape[0], 2, projection.shape[1]), dtype=complex)
    scaled = projection / np.sqrt(probability)
    if basis is Basis.Z:
        post[:, outcome, :] = scaled
    else:
        sign = 1.0 if outcome == 0 else -1.0
        post[:, 0, :] = scaled * _RSQRT2
        post[:, 1, :] = sign * scaled * _RSQRT2
    return StateVector._trusted(post.reshape(-1), s.labels)


def _clamped(p0: float) -> float:
    """P(outcome 0) as the sampler uses it, with impossible branches at 0 or 1."""
    if p0 <= _ZERO_PROB:
        return 0.0
    if 1.0 - p0 <= _ZERO_PROB:
        return 1.0
    return p0


def measure_qubit(s: StateVector, q: str, basis: Basis | str, rand: "np.random.Generator") -> MeasurementBranch:
    """Sample a single-qubit measurement and collapse the register.

    The outcome is drawn with its Born probability: one uniform draw per
    call, outcome 0 iff the draw falls below P(outcome 0).  Re-measuring the
    same qubit in the same basis is then deterministic.  ``basis`` may be a
    :class:`Basis` or its value; anything else raises ``ValueError``.
    """
    basis, ax = Basis(basis), s.axis(q)
    p0, proj0, proj1 = _branch_weights(s._split(ax), basis)
    outcome = 0 if rand.random() < _clamped(p0) else 1
    probability = p0 if outcome == 0 else 1.0 - p0
    projection = proj0 if outcome == 0 else proj1
    post = _collapsed(s, ax, basis, outcome, projection, probability)
    return MeasurementBranch(outcome, probability, post)


def enumerate_qubit(s: StateVector, q: str, basis: Basis | str) -> list[MeasurementBranch]:
    """Both branches of a single-qubit measurement with exact probabilities.

    Zero-probability branches are reported with ``post_state=None``, and
    ``basis`` is taken as in :func:`measure_qubit`.
    """
    basis, ax = Basis(basis), s.axis(q)
    p0, proj0, proj1 = _branch_weights(s._split(ax), basis)
    branches = []
    for outcome, probability, projection in ((0, p0, proj0), (1, 1.0 - p0, proj1)):
        if probability <= _ZERO_PROB:
            branches.append(MeasurementBranch(outcome, max(probability, 0.0), None))
        else:
            branches.append(MeasurementBranch(outcome, probability,
                                              _collapsed(s, ax, basis, outcome, projection, probability)))
    return branches


def enumerate_bell(s: StateVector, q1: str, q2: str) -> list[BellOutcome]:
    """All four Bell-measurement branches on qubits (q1, q2).

    Outcomes are listed in the fixed order psi+, psi-, phi+, phi-.
    """
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    axes = (s.axis(q1), s.axis(q2))
    t = np.moveaxis(s.amplitudes.reshape((2,) * s.num_qubits), axes, (0, 1))
    rest_labels = tuple(l for i, l in enumerate(s.labels) if i not in axes)
    outcomes = []
    for k, (name, mat) in enumerate(zip(BELL_NAMES, _BELL_MATRICES)):
        bits = divmod(k, 2)  # (family, sign): family 0 = psi, 1 = phi; sign 0 = +, 1 = -
        res = np.einsum("ij,ij...->...", mat.conj(), t)
        probability = float(np.sum(np.abs(res) ** 2))
        if probability <= _ZERO_PROB:
            outcomes.append(BellOutcome(name, bits, max(probability, 0.0), None, None))
            continue
        res_normed = res / np.sqrt(probability)
        post = np.moveaxis(np.multiply.outer(mat, res_normed), (0, 1), axes).reshape(-1)
        residual = StateVector(res_normed.reshape(-1), rest_labels) if rest_labels else None
        outcomes.append(BellOutcome(name, bits, probability, StateVector(post, s.labels), residual))
    return outcomes


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` bit for bit: the last axis's columns added left to right, as numpy adds them."""
    total = x[..., 0]
    for column in range(1, x.shape[-1]):
        total = total + x[..., column]
    return total


def _sample_bell_rows(probabilities: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Index of the Bell outcome that ``draws[t]`` selects from row t of
    ``probabilities`` (shape (T, 4), psi+, psi-, phi+, phi- order).

    The draw walks the row's cumulative distribution, skipping branches of
    probability at or below ``_ZERO_PROB``; a draw past the last boundary
    takes the last possible branch.
    """
    possible = probabilities > _ZERO_PROB
    _, second, third, fourth = possible.T
    later = (second | third | fourth, third | fourth, fourth)  # later[k]: a branch after k is possible
    if not (possible[:, 0] | later[0]).all():
        raise RuntimeError("no Bell branch has positive probability")
    # the cumulative distribution, added in np.cumsum's order, is flat across impossible
    # branches: a draw moves past boundary k when it is at or above it and a later branch is possible
    weights = np.where(possible, probabilities, 0.0)
    cumulative = weights[:, 0]
    passed = ((draws >= cumulative) & later[0]).astype(np.intp)
    for column in (1, 2):
        cumulative = cumulative + weights[:, column]
        passed += (draws >= cumulative) & later[column]
    return passed


# ---------------------------------------------------------------------------
# reduced states and fidelities


def reduced_density(s: StateVector, q: str) -> np.ndarray:
    """2x2 reduced density matrix of one qubit."""
    m = s._rows(s.axis(q))
    return m @ m.conj().T


def reduced_fidelity(s: StateVector, q: str, ref: StateVector) -> float:
    """<ref| rho_q |ref> for a single-qubit reference state."""
    if ref.num_qubits != 1:
        raise ValueError("reference must be a single-qubit state")
    rho = reduced_density(s, q)
    v = ref.amplitudes
    return float(np.real(v.conj() @ rho @ v))

