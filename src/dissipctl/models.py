"""Built-in example systems with machine-readable expected outcomes.

Every constructor returns a NamedModel bundling the open-system model, the
candidate stability witnesses, an aggregate description where applicable, and
an ``expected`` record.  Expected entries carry a provenance tag:

* ``exact``   - value follows from closed-form arithmetic,
* ``derived`` - value was computed with an independent oracle and is
                re-derived by the test suite,
* ``trivial`` - structural fact (identities, vacuous cases).

Site convention: site 1 is the leftmost Kronecker factor.
"""

from __future__ import annotations

import inspect
import math
import re

import numpy as np

from .errors import DimensionCapError, InputFormatError, PreconditionError
from .lindblad import LindbladModel
from .linalg import (
    MAX_MODEL_DIM,
    PAULI_Z,
    SIGMA_MINUS,
    LocalOperator,
    TensorStructure,
    _number,
)
from .scalability import AggregateSpec


class NamedModel:
    """A ready-to-use example system with documented expected outcomes.

    An aggregate example holds its operators in `aggregate` alone: its
    `model` holds the aggregate's own operators (every channel, the new ones
    last), and each of its `candidates`, given as the indices of the terms it
    sums, is the list of those terms.  Values given as matrices are returned
    as given.
    """

    def __init__(self, name: str, description: str, model: LindbladModel | None = None,
                 candidates: dict | None = None, aggregate: AggregateSpec | None = None,
                 expected: dict[str, dict] | None = None, extras: dict | None = None):
        self.name = name
        self.description = description
        self.aggregate = aggregate
        self.expected = expected or {}
        self.extras = extras or {}
        self.model = model if model is not None else aggregate.to_model(aggregate.new_couplings)
        self.candidates = {key: [aggregate.terms[t] for t in v] if isinstance(v, tuple) else v
                           for key, v in (candidates or {}).items()}


def _expected(value, tag: str) -> dict:
    return {"value": value, "tag": tag}


def two_level_example(l00: float | complex = 0.0, l10: float | complex = 1.0) -> NamedModel:
    """Qubit with H = diag(1/2, -1/2) and the stabilizing coupling family
    L = [[l00, 0], [l10, 0]], l10 != 0; drives the system to diag(0, 1)."""
    if l10 == 0:
        raise PreconditionError("l10 must be nonzero for the stabilizing family")
    h = np.diag([0.5, -0.5])
    v = np.diag([1.0, 0.0])
    coupling = np.array([[l00, 0.0], [l10, 0.0]])
    model = LindbladModel(TensorStructure((2,)), h, [coupling])
    rate = abs(l10) ** 2
    expected = {
        "c_es": _expected(rate, "derived"),
        "c_ds": _expected(rate, "derived"),
        "equilibrium": _expected([[0.0, 0.0], [0.0, 1.0]], "exact"),
        "equilibrium_purity": _expected(1.0, "exact"),
        "commutes_with_hamiltonian": _expected(True, "exact"),
        "decay_rate": _expected(rate, "derived"),
    }
    return NamedModel(
        name="two_level",
        description="two-level system stabilized to the lower level by a "
                    "lowering-type coupling",
        model=model,
        candidates={"V": v},
        expected=expected,
    )


def three_level_example() -> NamedModel:
    """Three-level system with V = diag(0, 1, 2); dissipative stability holds
    with c = 1/2 while no exponential certificate exists."""
    h = np.zeros((3, 3))
    v = np.diag([0.0, 1.0, 2.0])
    l1 = np.zeros((3, 3))
    l1[0, 1] = 1.0
    l2 = np.zeros((3, 3))
    l2[1, 2] = 1.0
    l2[2, 1] = 1.0
    model = LindbladModel(TensorStructure((3,)), h, [l1, l2])
    expected = {
        "generator_diag": _expected([0.0, 0.0, -1.0], "exact"),
        "dissipation_diag": _expected([0.0, 2.0, 1.0], "exact"),
        "c_ds": _expected(0.5, "exact"),
        "c_es": _expected(None, "exact"),
        "dissipation_square_c": _expected(0.25, "derived"),
    }
    return NamedModel(
        name="three_level",
        description="ladder system whose decay is asymptotic but not "
                    "exponentially certified",
        model=model,
        candidates={"V": v},
        expected=expected,
    )


def two_qubit_aggregation_example() -> NamedModel:
    """Two qubits: W1 = diag(1,0) (x) I and W2 = (1 + Z1 Z2)/2, with the
    single-qubit coupling extended by two new channels; the ground-energy-free
    incremental condition holds with c = 1."""
    structure = TensorStructure((2, 2))
    h = LocalOperator((1,), np.diag([0.5, -0.5]))
    w1 = LocalOperator((1,), np.diag([1.0, 0.0]))
    w2 = LocalOperator((1, 2), 0.5 * (np.eye(4) + np.kron(PAULI_Z, PAULI_Z)))
    l1 = LocalOperator((1,), SIGMA_MINUS)
    l2 = np.zeros((4, 4))
    l2[2, 1] = 1.0  # |01> -> |10>
    l3 = np.zeros((4, 4))
    l3[2, 3] = 1.0  # |11> -> |10>
    aggregate = AggregateSpec(
        structure=structure, terms=[w1, w2], couplings=[l1],
        assignment=[0, []], hamiltonian=h, term_names=["W1", "W2"],
        new_couplings=[LocalOperator((1, 2), l2), LocalOperator((1, 2), l3)],
    )
    expected = {
        "sum_diag": _expected([2.0, 1.0, 0.0, 1.0], "exact"),
        "corollary_d_free_c1": _expected(True, "exact"),
        "incremental_es_c1": _expected(True, "exact"),
        "incremental_ds_holds": _expected(False, "derived"),
        "frustration_free": _expected(True, "exact"),
        "d": _expected(0.0, "exact"),
    }
    return NamedModel(
        name="two_qubit",
        description="aggregation of a single-qubit witness with a parity "
                    "witness; certified by the ground-energy-free route",
        candidates={"W": (0, 1), "W1": (0,), "W2": (1,)},
        aggregate=aggregate,
        expected=expected,
    )


def _stabilizer_aggregate(n_qubits: int, stabilizers) -> AggregateSpec:
    """Terms W_t = (1 + sign S_t)/2 on qubits, each channelled by its own
    L_t = U_t (1 + sign S_t), with H = 0; `stabilizers` holds
    (name, sign, S_t, U_t), where S_t and U_t are Pauli strings.  Each
    operator is built on its own sites, L_t on those of S_t and U_t."""
    structure = TensorStructure.qubits(n_qubits)
    terms, couplings, unitaries, names = [], [], [], []
    for name, sign, stabilizer, unitary in stabilizers:
        s = LocalOperator.pauli(stabilizer, structure)
        u = LocalOperator.pauli(unitary, structure)
        terms.append(LocalOperator(s.sites, 0.5 * (np.eye(len(s.matrix)) + sign * s.matrix)))
        sites = tuple(sorted({*s.sites, *u.sites}))
        projector = np.eye(2 ** len(sites)) + sign * s.on(sites, structure)
        couplings.append(LocalOperator(sites, u.on(sites, structure) @ projector))
        unitaries.append(u)
        names.append(name)
    return AggregateSpec(structure=structure, terms=terms, couplings=couplings,
                         assignment=list(range(len(terms))), term_names=names,
                         unitaries=unitaries)


def cluster_chain(n_qubits: int = 4) -> NamedModel:
    """Open chain preparing the 1D cluster state: terms W_s = (Z X Z + 1)/2
    on sites (s-1, s, s+1) for s = 2..n-1, each stabilized by the coupling
    L_s = Z_s (Z_(s-1) X_s Z_(s+1) + 1)."""
    n = int(n_qubits)
    if n < 3:
        raise PreconditionError("cluster chain needs at least 3 qubits")
    if n > math.log2(MAX_MODEL_DIM):  # 2 ** n itself would not fit in memory for a huge n
        raise DimensionCapError(f"2^{n} exceeds the construction cap {MAX_MODEL_DIM}")
    aggregate = _stabilizer_aggregate(n, [(f"W{s}", 1.0, f"Z{s - 1} X{s} Z{s + 1}", f"Z{s}")
                                          for s in range(2, n)])
    expected = {
        "terms_commute": _expected(True, "exact"),
        "wuw_zero": _expected(True, "exact"),
        "per_term_c": _expected(4.0, "derived"),
        "ground_space_dim": _expected(2 ** n // 2 ** (n - 2), "derived"),
        "commuting_certified": _expected(True, "derived"),
    }
    return NamedModel(
        name="cluster_chain",
        description=f"{n}-qubit chain whose commuting three-site witnesses "
                    "single out the cluster state",
        candidates={"W": tuple(range(aggregate.n_terms))},
        aggregate=aggregate,
        expected=expected,
    )


def toric_patch(extended: bool = False) -> NamedModel:
    """Surface-code patch: a vertex witness V1 = (1 - X1 X2 X3 X4)/2 and a
    plaquette witness V2 = (1 - Z3 Z4 Z5 Z6)/2 on six qubits.

    The extended variant adds V3 = (1 - X1 X7 X8 X9)/2 on nine qubits, with
    qubits 7, 8, 9 on the three remaining edges of the vertex to the left of
    qubit 1 (V1 and V3 share that edge).  V1 is stabilized through Z1 and V2
    through X5; the extended patch stabilizes V3 through Z7.  Any of Z1..Z4
    works for V1 and all four commute with V2.
    """
    n = 9 if extended else 6
    stabilizers = [("V1", -1.0, "X1 X2 X3 X4", "Z1"), ("V2", -1.0, "Z3 Z4 Z5 Z6", "X5")]
    if extended:
        stabilizers.append(("V3", -1.0, "X1 X7 X8 X9", "Z7"))
    aggregate = _stabilizer_aggregate(n, stabilizers)
    candidate_unitaries = [LocalOperator.pauli(f"Z{i}", aggregate.structure)
                           for i in (1, 2, 3, 4)]
    expected = {
        "candidates_commute_with_v2": _expected(True, "exact"),
        "ground_space_dim_v1_v2": _expected(16, "derived"),
        "commuting_certified": _expected(not extended, "derived"),
    }
    if extended:
        expected["z1_v3_commutator_nonzero"] = _expected(True, "exact")
        expected["scalability_v3_via_z1_channel"] = _expected(True, "derived")
    return NamedModel(
        name="toric_patch",
        description="surface-code stabilizer patch (six qubits; nine with the "
                    "extended vertex witness)",
        candidates={"V": (0, 1)},
        aggregate=aggregate,
        expected=expected,
        extras={"candidate_unitaries": candidate_unitaries},
    )


def complementary_witnesses() -> NamedModel:
    """W1 = diag(1,0) and W2 = diag(0,1) sum to the identity: the aggregate
    has ground energy 1, is not frustration-free, and <W> stays 1 forever."""
    structure = TensorStructure((2,))
    w1 = np.diag([1.0, 0.0])
    w2 = np.diag([0.0, 1.0])
    aggregate = AggregateSpec(structure=structure, terms=[w1, w2], couplings=[],
                              assignment=[[], []], term_names=["W1", "W2"])
    expected = {
        "d": _expected(1.0, "exact"),
        "frustration_free": _expected(False, "exact"),
        "w_expectation_constant": _expected(True, "trivial"),
    }
    return NamedModel(
        name="complementary_witnesses",
        description="two witnesses that cannot reach their ground states "
                    "simultaneously",
        candidates={"W": (0, 1)},
        aggregate=aggregate,
        expected=expected,
    )


REGISTRY = {
    "two_level": two_level_example,
    "three_level": three_level_example,
    "two_qubit": two_qubit_aggregation_example,
    "cluster_chain": cluster_chain,
    "toric_patch": toric_patch,
    "complementary_witnesses": complementary_witnesses,
}

_NAME_RE = re.compile(r"^([a-z_][a-z0-9_]*)(?:\((.*)\))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def build(name: str) -> NamedModel:
    """Instantiate a registry model from a string like ``cluster_chain(5)``
    or ``toric_patch(extended)``.

    Arguments are positional numbers, read by `linalg._number` as in every
    input file (an ``int`` parameter takes 4.0 as 4), except that a boolean
    parameter is set by its own name and by nothing else.  Arguments that
    overflow the constructor, or give an operator that its door
    (`local_operator`) refuses, and arguments the constructor refuses (a
    PreconditionError), are an input error naming ``name``.
    """
    m = _NAME_RE.match(name.strip())
    if m is None or m.group(1) not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise InputFormatError("name", f"unknown model {name!r}; known: {known}")
    fn = REGISTRY[m.group(1)]
    params = inspect.signature(fn).parameters
    flags = {p for p, spec in params.items() if spec.annotation == "bool"}
    numbers = [spec for p, spec in params.items() if p not in flags]
    args, kwargs = [], {}
    for part in (m.group(2) or "").split(","):
        part = part.strip()
        if not part:
            continue
        if part in flags:
            kwargs[part] = True
            continue
        try:
            value = int(part) if _INT_RE.match(part) else float(part)
        except ValueError:
            raise InputFormatError("name", f"cannot parse argument {part!r} in {name!r}")
        if len(args) == len(numbers):
            hint = "".join(f"; set {flag} by its name" for flag in sorted(flags))
            raise InputFormatError("name", f"{m.group(1)} takes {len(numbers)} numeric "
                                           f"argument(s), {name!r} gives more{hint}")
        count = numbers[len(args)].annotation == "int"
        try:
            value = _number(value, integral=count)
        except ValueError:
            raise InputFormatError("name", f"argument {part!r} in {name!r} must be an integer")
        except OverflowError:  # a count past the float range is left to the constructor's cap
            if not count:
                raise InputFormatError("name", f"argument {part!r} in {name!r} must be finite")
        args.append(value)
    try:
        return fn(*args, **kwargs)
    except (OverflowError, FloatingPointError, InputFormatError) as exc:
        raise InputFormatError("name", f"arguments in {name!r} overflow: {exc}")
    except PreconditionError as exc:
        raise InputFormatError("name", str(exc))
