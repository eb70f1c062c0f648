"""Aggregation of per-term stability certificates.

A composite witness W = sum_t W_t (every W_t PSD) is certified from per-term
conditions plus a cross-channel scalability condition: channels not assigned
to a term must not push its generator positive.  Incremental variants certify
W_(n+1) = W_n + W_next given a certificate for the first n terms, with the
ground-energy ladder d_n entering the inequalities; the d-free corollary
drops those d-dependent shifts.  Constants come from the one Schur-complement
solver of `stability`.

Every operator is held as a `LocalOperator`, X (x) I as X on its sites.  Each
check runs on a support window (`_Window`), the sites of its terms and of the
channels and H that meet them, and `_Window.add` sums its kernels there (G_L,
D_L, -i[W, H], the cross term [L', W_n][W_next, L]), each computed on the
sites of its own operators; one that misses a term commutes with it and drops
out.  Only the ground energy d of an aggregate report uses the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputFormatError, PreconditionError
from .lindblad import (
    _N_SAMPLES,
    LindbladModel,
    Trajectory,
    _drift,
    _hermitian_terms,
    dissipation_single_channel,
    evolve,
)
from .linalg import (
    DEFAULT_TOL,
    LocalOperator,
    TensorStructure,
    _frobenius,
    _meet,
    _nonpositive,
    _number,
    _sum_meeting,
    _Window,
    commutator,
    dagger,
    eigenvalues,
    embed_sum,
    is_psd,
    local_operator,
    psd_spectrum,
    scaled_tol,
    spectral_tol,
)
from .stability import _schur_constant


# The other columns of an aggregate trajectory (time, total, invariants).
_RESERVED_COLUMNS = frozenset({"t", "W", "trace", "purity"})


@dataclass
class AggregateSpec:
    """Terms, channels, and the term-to-channel assignment of an aggregate,
    with the unitary factors U_k of couplings L_k = U_k W_k (for the
    commuting corollary; None when not given) and the new channels of an
    incremental step.

    A spec is checked where it is built, each refusal an InputFormatError
    naming its field: first each operator by `local_operator`, as
    `spec.terms[i]`, `spec.couplings[i]`, `spec.H`, `spec.unitaries[i]` and
    `spec.new_couplings[i]`; then `spec.names`, one per term, distinct,
    none of a trajectory's other columns and each a CSV field as it stands
    (no comma, double quote, CR or LF); `spec.assignment`, one entry per
    term, a channel index or a list of distinct ones, held as lists of
    indices; `spec.unitaries`, one per channel.  Every operator is held once, as a
    `LocalOperator`, one of the whole space reduced to its support; only d
    and simulation embed operators back into the whole space.  H must be
    Hermitian; when not given it is zero, on no site.
    """

    structure: TensorStructure
    terms: list[LocalOperator]
    couplings: list[LocalOperator] = field(default_factory=list)
    assignment: list | None = None
    hamiltonian: LocalOperator = field(default_factory=lambda: LocalOperator((), np.zeros((1, 1))))
    term_names: list[str] | None = None
    unitaries: list[LocalOperator] | None = None
    new_couplings: list[LocalOperator] = field(default_factory=list)

    def __post_init__(self):
        def operators(key):  # before the rules below, in the order of the file format
            return [local_operator(a, self.structure, f"spec.{key}[{i}]", reduce=True)
                    for i, a in enumerate(getattr(self, key))]

        self.terms, self.couplings = operators("terms"), operators("couplings")
        self.hamiltonian, = _hermitian_terms(self.hamiltonian, self.structure, "hamiltonian",
                                             "spec.H", reduce=True)
        if self.unitaries is not None:
            self.unitaries = operators("unitaries")
        self.new_couplings = operators("new_couplings")
        n_terms, n_channels = len(self.terms), len(self.couplings)
        for key, value, n, per in (("names", self.term_names, n_terms, "term"),
                                   ("assignment", self.assignment, n_terms, "term"),
                                   ("unitaries", self.unitaries, n_channels, "channel")):
            if value is not None and len(value) != n:
                raise InputFormatError(f"spec.{key}", f"need {n}, one per {per}, got {len(value)}")
        names = self.term_names
        if names is not None and (len(set(names)) < len(names) or _RESERVED_COLUMNS & set(names)
                                  or any(set(name) & set(',"\r\n') for name in names)):
            raise InputFormatError("spec.names", "names must be distinct, none of "
                                   f"{', '.join(sorted(_RESERVED_COLUMNS))} and free of "
                                   f"commas, double quotes and line breaks, got {names!r}")
        if self.assignment is not None:
            groups = [list(e) if isinstance(e, (list, tuple)) else [e] for e in self.assignment]
            for t, ks in enumerate(groups):  # a channel counted twice would double its constant
                try:
                    ks[:] = [_number(k, integral=True) for k in ks]
                except (ValueError, OverflowError):
                    ks[:] = [-1]  # no channel index
                if not all(0 <= k < n_channels for k in ks) or len(set(ks)) < len(ks):
                    raise InputFormatError("spec.assignment", f"entry {t} must be a channel index "
                                           f"below {n_channels} or a list of distinct ones, "
                                           f"got {self.assignment[t]!r}")
            self.assignment = groups

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_channels(self) -> int:
        return len(self.couplings)

    def names(self) -> list[str]:
        return list(self.term_names or (f"W{i + 1}" for i in range(self.n_terms)))

    def channel_groups(self) -> list[list[int]]:
        """The assignment, or one channel per term when none is given."""
        if self.assignment is None and self.n_terms != self.n_channels:
            raise PreconditionError("assignment required when terms and channels do not pair "
                                    "one-to-one", field="spec.assignment")
        return self.assignment or [[i] for i in range(self.n_terms)]

    def to_model(self, new_couplings=()) -> LindbladModel:
        """The model of H and every channel of the spec, plus `new_couplings`."""
        return LindbladModel(self.structure, self.hamiltonian, [*self.couplings, *new_couplings])

    def total(self) -> np.ndarray:
        return embed_sum(self.terms, self.structure)


@dataclass
class AggregateReport:
    """Per-term verdicts and the overall certification outcome."""

    mode: str
    per_term: list[dict]
    overall: bool
    d_total: float
    notes: list[str] = field(default_factory=list)

    @property
    def constants(self) -> list[float | None]:
        return [entry.get("c") for entry in self.per_term]


def _require_terms_psd(spec: AggregateSpec, tol: float) -> None:
    """Every term checked PSD on its own sites; term i is refused as spec.terms[i]."""
    for i, t in enumerate(spec.terms):
        if not is_psd(t.matrix, tol, _Window(spec.structure, t).copies):
            raise PreconditionError(f"term {i} is not PSD", field=f"spec.terms[{i}]")


def _cross_single_channel(w_n: np.ndarray, w_next: np.ndarray, l: np.ndarray) -> np.ndarray:
    """2 Re([L', W_n][W_next, L]) with Re(M) = (M + M')/2."""
    ld = dagger(l)
    m = (ld @ w_n - w_n @ ld) @ (w_next @ l - l @ w_next)
    return m + dagger(m)


def _aggregate(spec: AggregateSpec, mode: str, note: str, tol: float) -> AggregateReport:
    """Per-term constants of the drift -i[W_t, H] + G_own(W_t) under the
    term's own channels (`mode` es or ds), plus the scalability condition of
    every term: its generator under every other channel is <= 0.  Summed
    over the terms, the two drifts give G(W)."""
    _require_terms_psd(spec, tol)
    if not spec.terms:
        return AggregateReport(mode=mode, per_term=[], overall=True, d_total=0.0,
                               notes=["no terms: vacuously stable"])
    groups = spec.channel_groups()
    names = spec.names()
    h = [spec.hamiltonian]
    per_term = []
    for t, (term, ks) in enumerate(zip(spec.terms, groups)):
        meets = [k for k, l in enumerate(spec.couplings) if _meet(l, term)]
        own = [spec.couplings[k] for k in ks if k in meets]
        others = [spec.couplings[k] for k in meets if k not in ks]
        win = _Window(spec.structure, term, *own, *(x for x in h if _meet(x, term)))
        gen, w = win.add(_drift([term], own, h)), win.embed(term)
        entry = {"term": names[t], "channels": ks}
        if mode == "es":  # the largest c with gen <= -c W_t
            entry["c"] = _schur_constant(-gen, *np.linalg.eigh(w), tol,
                                         copies=win.copies) if own else None
        else:  # gen <= 0, and the largest c with D_own(W_t) >= c W_t
            ok, c = is_psd(-gen, tol, win.copies), None
            if ok and own:
                diss = win.add((dissipation_single_channel, term, l) for l in own)
                c = _schur_constant(diss, *np.linalg.eigh(w), tol, copies=win.copies)
            entry.update(c=c, generator_nonpositive=ok)
        win = _Window(spec.structure, term, *others)
        acc = win.add(_drift([term], others))
        scal_ok, margin = _nonpositive(acc, tol)
        entry.update(scalability=scal_ok, scalability_margin=margin,
                     certified=entry["c"] is not None and scal_ok)
        per_term.append(entry)
    overall = all(entry["certified"] for entry in per_term)
    return AggregateReport(mode=mode, per_term=per_term, overall=overall,
                           d_total=float(eigenvalues(spec.total())[0]),
                           notes=[note] if overall else [])


def check_theorem_es_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term exponential certificates plus the scalability condition.

    Each term must satisfy (with its assigned channels) a per-term decay bound
    with some c > 0, and every term must pass the cross-channel condition.
    When all terms pass, the sum is certified asymptotically ground-state
    stable and is itself a valid stability witness.
    """
    return _aggregate(spec, "es", "aggregate certified: the sum is a valid stability witness", tol)


def check_theorem_ds_aggregation(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Per-term dissipative certificates plus the scalability condition."""
    return _aggregate(spec, "ds", "aggregate satisfies the dissipative condition", tol)


def check_incremental(spec: AggregateSpec, n: int, c: float, mode: str = "es",
                      d_free: bool = False, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Certificate for the (n+1)-term partial sum W_n + W_next under the
    spec's channels plus `spec.new_couplings`, after verifying the prior
    certificate of W_n (PreconditionError otherwise).  With d_n the ground
    energy of W_n, c > 0 and Re(M) = (M + M')/2, it checks
        es:  G(W_next) + sum_new G(W_n)_L  <=  -c W_next + c (d_(n+1) - d_n);
        ds:  G(W_next) + sum_new G(W_n)_L  <=  0  and
             D(W_next) + 2 sum_k Re([L_k', W_n][W_next, L_k])  >=  c W_next - c (d_(n+1) - d_n),
    and reports the cross-term norm.  `d_free`, the ground-energy-free
    corollary, drops the shifts c (d_(n+1) - d_n); the ladder d_(n+1) >= d_n
    makes it strictly stronger.  d_n and d_(n+1) are eigenvalues on the window
    of W_1..W_(n+1), equal to those of the whole space.  An `n` out of range is
    refused, naming its field, before any term is tested.
    """
    if mode not in ("es", "ds"):
        raise PreconditionError(f"mode must be 'es' or 'ds', got {mode!r}")
    if not c > 0:
        raise PreconditionError(f"c must be positive, got {c}")
    if not 1 <= n < spec.n_terms:
        raise PreconditionError(f"must satisfy 1 <= n < {spec.n_terms}, got {n}", field="n")
    _require_terms_psd(spec, tol)
    prior, nxt = spec.terms[:n], spec.terms[n]
    channels = [*spec.couplings, *spec.new_couplings]  # the spec's, then the new ones
    h = [spec.hamiltonian]
    win = _Window(spec.structure, *prior, nxt,
                  *(x for x in h + channels if any(_meet(x, t) for t in (*prior, nxt))))
    w_n = win.add((np.asarray, t) for t in prior)  # the terms as they are
    w_next = win.embed(nxt)
    if not 16.0 * c * max(_frobenius(w, win.copies) for w in (w_n, w_next)) < np.inf:
        # the headroom rule of an operator's door, `local_operator`, for c times a term
        raise InputFormatError("c", f"{c!r} times the norm of a term is too close to the "
                                    "float range")
    lam_n = eigenvalues(w_n)  # gives d_n and the scale of the ladder d_(n+1) >= d_n
    d_n = float(lam_n[0])
    d_next = float(eigenvalues(w_n + w_next)[0])
    eye = np.eye(w_n.shape[0])

    g = win.add(_drift(prior, spec.couplings, h))
    shifted = w_n - d_n * eye
    prior_tol = max(tol, 1e-8)  # at tol 1e-15, rounding (2e-14) fails cluster_chain(9)'s prior
    if mode == "es" and not _nonpositive(g + c * shifted, prior_tol)[0]:
        raise PreconditionError(
            f"prior certificate missing: existing channels do not give the decay bound at c={c}"
        )
    if mode == "ds":
        if not _nonpositive(g, prior_tol)[0]:
            raise PreconditionError("prior certificate missing: generator not non-positive")
        d_op = win.add((dissipation_single_channel, _sum_meeting(spec.structure, prior, l), l)
                       for l in spec.couplings)
        if not _nonpositive(c * shifted - d_op, prior_tol)[0]:
            raise PreconditionError(f"prior certificate missing: dissipation bound fails at c={c}")

    gen = win.add(_drift([nxt], channels, h) + _drift(prior, spec.new_couplings))
    shift = 0.0 if d_free else c * (d_next - d_n) * eye
    if mode == "es":
        holds, margin = _nonpositive(gen + c * w_next - shift, tol)
        info = {"margin": margin}
    else:
        gen_ok, gen_margin = _nonpositive(gen, tol)
        cross = win.add((_cross_single_channel, t, nxt, l) for l in channels for t in prior)
        diss = win.add((dissipation_single_channel, nxt, l) for l in channels) + cross
        lam = eigenvalues(diss - c * w_next + shift)
        holds = gen_ok and psd_spectrum(lam, tol)
        info = {"generator_margin": gen_margin,
                "margin" if d_free else "dissipation_margin": float(lam[0]),
                "cross_norm": float(np.linalg.norm(cross, 2))}
    info.update(d_n=d_n, d_next=d_next)
    if not d_free:
        info["d_ladder_ok"] = d_next >= d_n - spectral_tol(lam_n, tol)
    return holds, info


def _commutes(structure: TensorStructure, a: LocalOperator, b: LocalOperator,
              tol: float) -> tuple[bool, float]:
    """([a, b] = 0 within scaled_tol(a) * max(1, ||b||), the defect ||[a, b]||),
    on the window of the two; disjoint supports commute exactly.  ||b|| is
    taken on b's own sites: the other sites' copies enter each side once."""
    win = _Window(structure, a, b)
    defect = _frobenius(win.add([(commutator, a, b)]), win.copies)
    a_tol = scaled_tol(win.embed(a), tol, win.copies)
    return defect <= a_tol * max(1.0, _frobenius(b.matrix)), defect


def _factor(structure: TensorStructure, u: LocalOperator, l: LocalOperator) -> LocalOperator:
    """M = U' L, on the window of the two."""
    win = _Window(structure, u, l)
    return LocalOperator(win.sites, dagger(win.embed(u)) @ win.embed(l))


def check_corollary_commuting(spec: AggregateSpec, tol: float = DEFAULT_TOL) -> AggregateReport:
    """Commuting-family certificate for couplings of the form L_k = U_k W_k,
    with the U_k read from `spec.unitaries`.

    Verifies [W_a, W_b] = 0 for all pairs, that every U_k is unitary, and,
    whenever channel k is not assigned to term t, [U_k, W_t] = 0 and
    [M_k, W_t] = 0 for M_k = U_k' L_k, so that G_(L_k)(W_t) = M_k' W_t M_k -
    {M_k' M_k, W_t}/2 = 0; and the per-term exponential condition.  Each
    failing clause is a note naming its channel, with guidance to evaluate
    the scalability condition directly.  A spec without unitaries is refused,
    naming the field ``spec``, before the aggregation theorem runs.
    """
    unitaries = spec.unitaries
    if unitaries is None:
        raise PreconditionError("commuting mode needs the unitary factors "
                                "(a 'unitaries' array in the spec)", field="spec")
    base = check_theorem_es_aggregation(spec, tol)  # which tests every term PSD
    names = spec.names()
    terms = spec.terms
    notes: list[str] = []
    for a in range(spec.n_terms):
        for b in range(a + 1, spec.n_terms):
            ok, defect = _commutes(spec.structure, terms[a], terms[b], tol)
            if not ok:
                notes.append(f"terms {names[a]} and {names[b]} do not commute (norm {defect:.3e})")
    for k, u in enumerate(unitaries):  # U'U = I within scaled_tol(U), on the sites of U
        copies = _Window(spec.structure, u).copies
        defect = _frobenius(dagger(u.matrix) @ u.matrix - np.eye(len(u.matrix)), copies)
        if defect > scaled_tol(u.matrix, tol, copies):
            notes.append(f"U[{k}] is not unitary (norm of U'U - I {defect:.3e}); "
                         "rerun with --theorem es")
    factors = [_factor(spec.structure, u, l) for u, l in zip(unitaries, spec.couplings)]
    for t, ks in enumerate(spec.channel_groups()):
        for k, clause in enumerate(zip(unitaries, factors)):
            if k in ks:
                continue
            for what, op in zip((f"U[{k}]", f"U[{k}]' L[{k}]"), clause):
                ok, defect = _commutes(spec.structure, op, terms[t], tol)
                if not ok:
                    notes.append(f"commutation clause fails for ({what}, {names[t]}) "
                                 f"(norm {defect:.3e}); rerun with --theorem es")
    # the notes so far are the failing clauses
    overall = not notes and all(e["c"] is not None for e in base.per_term)
    if overall:
        notes.append("commuting-family certificate holds; aggregate ground-state stable")
    return AggregateReport(mode="commuting-es", per_term=base.per_term, overall=overall,
                           d_total=base.d_total, notes=notes)


def simulate_aggregate(spec: AggregateSpec, t_final: float, *, n_samples: int = _N_SAMPLES,
                       model: LindbladModel | None = None,
                       rho0: np.ndarray | None = None) -> Trajectory:
    """Evolve `model` (default: the spec's own channels, `spec.to_model()`)
    from `rho0` (default: the maximally mixed state) by `evolve` and record
    the expectations of the total W and of each of the spec's terms.

    A model of another structure is refused, naming the field ``spec``, before
    `evolve`'s refusals.  Runs regardless of certification status (diagnosis
    tool).
    """
    dims, n = spec.structure.dims, spec.structure.total_dim
    if model is not None and model.structure.dims != dims:
        raise DimensionMismatchError(
            f"dimension {n} != model dimension {model.dim}" if model.dim != n
            else f"dims {list(dims)} != model dims {list(model.structure.dims)}", field="spec")
    return evolve(spec.to_model() if model is None else model, rho0, t_final,
                  n_samples=n_samples,
                  observables={"W": spec.terms, **dict(zip(spec.names(), spec.terms))})
