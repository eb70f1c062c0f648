"""Dense linear algebra and Hilbert-space composition primitives.

Operators are plain numpy arrays, and their dtype follows the data:
`as_operator` stores a matrix with no nonzero imaginary part as float64 and
any other as complex128, so real models run in real BLAS and LAPACK, and
mixed operands promote to complex in numpy as usual.  Multi-site operators
are assembled with Kronecker products in big-endian site order: site 1 is the
leftmost factor.  Basis index 0 of a qubit is the upper level, so SIGMA_MINUS
maps e0 to e1.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import ceil, log2, prod, sqrt

import numpy as np

from .errors import DimensionCapError, DimensionMismatchError, InputFormatError

DEFAULT_TOL = 1e-9
MAX_MODEL_DIM = 4096  # models above it are refused: MAX_MODEL_DIM^2 bounds the arrays formed

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])


def real_or_complex(a) -> np.ndarray:
    """An array of any shape as float64 when no entry has a nonzero imaginary
    part, complex128 otherwise."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = a.astype(complex, copy=False)
        if not a.imag.any():
            a = a.real.copy()
    else:
        a = a.astype(float, copy=False)
    return a


def as_operator(a) -> np.ndarray:
    """Coerce to a square matrix, with the dtype rule of `real_or_complex`."""
    return _square(real_or_complex(a))


def _number(x, integral: bool = False) -> int | float:
    """`x`, a number of an input, as a float, or as an int where `integral`: a
    real is an int or float, numpy's too, never a bool, with |x| <= the largest
    float (exact for ints of any size), and an integer an integral real, so 2.0
    reads as 2.  Else a ValueError, or an OverflowError where only the bound fails."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)) \
            or integral and not float(x).is_integer():  # float() overflows past the bound
        raise ValueError(f"not {'an integer' if integral else 'a real'}: {x!r}")
    if not abs(x) <= sys.float_info.max:
        raise OverflowError(f"past the float range: {x!r}")
    return int(x) if integral else float(x)


def _sites(sites) -> tuple[int, ...]:
    """The 1-based `sites` read by `_number` as integers (1.0 as 1), or a
    DimensionMismatchError: a fractional or boolean site lands on no site."""
    try:
        return tuple(_number(s, integral=True) for s in sites)
    except (ValueError, OverflowError):
        raise DimensionMismatchError(f"sites must be integers: {list(sites)}") from None


def require_headroom(a: np.ndarray, field: str, what: str, copies: int = 1) -> np.ndarray:
    """`a`, or an InputFormatError naming `field` if 16 ||a (x) I||_F^2 =
    16 copies ||a||_F^2 overflows, I of dimension `copies`: ||X||_F^2 bounds
    every entry of X'X, and the factor 16 leaves room for the sums of such
    products in G(V) and D(V)."""
    with np.errstate(over="ignore"):
        if not np.isfinite(16.0 * copies * np.square(np.linalg.norm(a))):
            raise InputFormatError(field, f"{what} has a squared norm too close to the "
                                          "float range")
    return a


def _square(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack (..., n, n)."""
    a = np.asarray(a).conj()
    return a.swapaxes(-1, -2) if a.ndim > 1 else a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


def _frobenius(a: np.ndarray, copies: int = 1) -> float:
    """||a (x) I||_F = sqrt(copies) ||a||_F, I of dimension `copies`; ||a||_F
    is taken as m ||a / m|| with m = max |a_ij| where the squares of finite
    entries overflow, and is bitwise np.linalg.norm(a) everywhere else."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == np.inf:
        m = float(np.abs(a).max())
        if m < np.inf:
            norm = m * float(np.linalg.norm(a / m))
    return sqrt(copies) * norm


def scaled_tol(a: np.ndarray, tol: float = DEFAULT_TOL, copies: int = 1) -> float:
    """The Frobenius rule of norm defects (Hermiticity, commutation,
    unitarity): tol * max(1, ||a (x) I||_F), I of dimension `copies`."""
    return tol * max(1.0, _frobenius(a, copies))


def spectral_tol(w: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """The spectral rule of every eigenvalue verdict: tol * max(1, max |w|) of
    the eigenvalues w it decomposes, those of w (x) I too; tol for an empty
    spectrum.  A NaN in w gives tol, as Python's max keeps its first argument."""
    return tol * max(1.0, float(np.abs(w).max(initial=0.0)))


def is_hermitian(a, tol: float = DEFAULT_TOL, copies: int = 1) -> bool:
    """a (x) I is Hermitian within `scaled_tol`, I of dimension `copies`."""
    a = as_operator(a)
    return _frobenius(a - dagger(a), copies) <= scaled_tol(a, tol, copies)


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of `a`."""
    return np.linalg.eigvalsh(hermitian_part(as_operator(a)))


def is_psd(a, tol: float = DEFAULT_TOL, copies: int = 1) -> bool:
    """a (x) I is positive semidefinite within `spectral_tol`, Hermitian
    (`is_hermitian`) included, I of dimension `copies`."""
    a = as_operator(a)
    return is_hermitian(a, tol, copies) and psd_spectrum(eigenvalues(a), tol)


def psd_spectrum(w: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """The ascending eigenvalues w of a Hermitian matrix are >= -spectral_tol(w)."""
    return bool(w.size == 0 or w[0] >= -spectral_tol(w, tol))


def _nonpositive(a, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """(a <= 0 within `spectral_tol` of its eigenvalues w, the margin -max(w))."""
    w = eigenvalues(a)
    return bool(w[-1] <= spectral_tol(w, tol)), -float(w[-1])


def is_projection(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    if not is_psd(a, tol):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is no projection
        square = a @ a
    return _frobenius(square - a) <= scaled_tol(a, tol)


@dataclass(frozen=True)
class TensorStructure:
    """Ordered subsystem dimensions of a composite Hilbert space: positive
    integers (`_number`) whose product is at most the largest float, so that
    every ratio of dimensions converts to one; a larger one is a DimensionCapError."""

    dims: tuple[int, ...]

    def __init__(self, dims):
        try:
            dims = tuple(_number(d, integral=True) for d in dims)
            if not dims or min(dims) < 1:
                raise ValueError(dims)
            _number(prod(dims))  # an OverflowError past the bound, as for one dimension
        except ValueError:
            raise DimensionMismatchError(f"subsystem dimensions must be positive integers: "
                                         f"{dims}") from None
        except OverflowError:
            raise DimensionCapError("the product of the subsystem dimensions exceeds "
                                    f"{sys.float_info.max:.6g}") from None
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def sites(self) -> tuple[int, ...]:
        """Every 1-based site."""
        return tuple(range(1, len(self.dims) + 1))

    @classmethod
    def qubits(cls, n: int) -> "TensorStructure":
        return cls((2,) * n)


def embed(local: np.ndarray, sites, structure: TensorStructure) -> np.ndarray:
    """Embed `local` acting on the given 1-based sites, identity elsewhere.

    ``local`` must have dimension equal to the product of the site dimensions,
    with its own factors ordered like ``sites``.  The entries of ``local`` are
    written once per basis state of the other sites into a zero matrix, so
    every other entry is +0.0.
    """
    local = as_operator(local)
    sites0 = [s - 1 for s in _sites(sites)]
    dims, n = structure.dims, structure.n_sites
    if len(set(sites0)) != len(sites0):
        raise DimensionMismatchError(f"sites must be distinct: {list(sites)}")
    if any(s < 0 or s >= n for s in sites0):
        raise DimensionMismatchError(f"site out of range 1..{n}: {list(sites)}")
    local_dims = [dims[s] for s in sites0]
    if local.shape[0] != prod(local_dims):
        raise DimensionMismatchError(
            f"local operator has dim {local.shape[0]}, sites require {prod(local_dims)}"
        )
    d = _dense_dim(structure.total_dim)
    out = np.zeros((d, d), dtype=local.dtype)
    _put(out, local, sites0, dims)
    return out


def _dense_dim(d: int) -> int:
    """`d`, the dimension of a dense operator to be formed, if not above the cap."""
    if d > MAX_MODEL_DIM:
        raise DimensionCapError(f"a dense operator of dimension {d} exceeds the cap "
                                f"{MAX_MODEL_DIM}")
    return d


def _put(out: np.ndarray, local: np.ndarray, sites0, dims, add: bool = False) -> None:
    """Write `local` (x) I on the 0-based `sites0` into `out`, a matrix of
    sites of `dims`, or with `add` add it in place; entries off the pattern
    of `local` (x) I are not touched."""
    n, d = len(dims), len(out)
    others = [i for i in range(n) if i not in sites0]
    local_dims = [dims[s] for s in sites0]
    # a view of `out` with axes (rows of the sites, columns of the sites,
    # the other sites), each other site's row and column index tied together
    col = [prod(dims[i + 1:]) * out.itemsize for i in range(n)]
    row = [d * c for c in col]
    view = np.lib.stride_tricks.as_strided(
        out, shape=local_dims * 2 + [dims[i] for i in others],
        strides=[row[s] for s in sites0] + [col[s] for s in sites0]
        + [row[i] + col[i] for i in others], writeable=True)
    part = local.reshape(local_dims * 2 + [1] * len(others))
    if add:
        view += part
    else:
        view[...] = part


def _support(a, structure: TensorStructure) -> tuple[int, ...]:
    """The 1-based sites on which `a` acts, ascending.

    A site is left out only when, on it, the diagonal blocks of `a` are
    bitwise equal and the off-diagonal blocks exactly zero, so that `a` is
    the identity there times an operator on the other sites, to which the
    test of the next site is applied.  An operator built from Pauli strings
    gets its true sites, a dense or noisy one every site.
    """
    a = as_operator(a)
    dims, n = structure.dims, structure.n_sites
    if a.shape[0] != structure.total_dim:
        raise DimensionMismatchError(f"operator dim {a.shape[0]} != structure dim "
                                     f"{structure.total_dim}")
    parts = [p.reshape(dims + dims) for p in ((a.real, a.imag) if np.iscomplexobj(a) else (a,))]
    sites = []
    for s, d in enumerate(dims):
        # the row axes left: the sites kept so far, then site s and those after it
        r, kept = len(sites), len(sites) + n - s
        blocks = [np.moveaxis(p, (r, kept + r), (0, 1)) for p in parts]
        off = ~np.eye(d, dtype=bool)
        if any(b[off].any() for b in blocks) or not all(
                np.array_equal(b.view(np.int64)[i, i], b.view(np.int64)[0, 0])
                for b in blocks for i in range(1, d)):
            sites.append(s + 1)
        else:
            parts = [b[0, 0] for b in blocks]
    return tuple(sites)


def _restrict(a, sites, structure: TensorStructure) -> np.ndarray:
    """The operator X on the ascending 1-based `sites`, with factors in site
    order, of a = X (x) I: `a` at index 0 of every other site.  Exact when
    `sites` holds `_support(a, structure)`; `embed` is its inverse."""
    a = as_operator(a)
    dims, n = structure.dims, structure.n_sites
    keep = {s - 1 for s in _sites(sites)}
    index = tuple(slice(None) if k % n in keep else 0 for k in range(2 * n))
    d = prod(dims[s] for s in keep)
    return np.ascontiguousarray(a.reshape(dims + dims)[index].reshape(d, d))


_PAULI_TOKEN = re.compile(r"^([IXYZ])(\d+)$")
_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _pauli_factors(spec: str, structure: TensorStructure, field: str) -> list[tuple[str, int]]:
    """The (letter, 1-based site) factors of a string like ``"Z1 X2 Z3"``;
    each refusal is an InputFormatError naming `field`."""
    factors: list[tuple[str, int]] = []
    for token in spec.split():
        m = _PAULI_TOKEN.match(token.strip().upper())
        if m is None:
            raise InputFormatError(field, f"bad token {token!r} in {spec!r}")
        letter, site = m.group(1), int(m.group(2))
        if any(site == s for _, s in factors):
            raise InputFormatError(field, f"site {site} repeated in {spec!r}")
        if site < 1 or site > structure.n_sites:
            raise InputFormatError(field, f"site {site} out of range in {spec!r}")
        if structure.dims[site - 1] != 2:
            raise InputFormatError(field, f"site {site} is not a qubit")
        factors.append((letter, site))
    return factors


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """An operator X (x) I held as X: `sites` are its ascending 1-based sites
    and `matrix` is X, with factors in site order.

    `pauli` builds a Pauli product on its sites, and `local_operator` holds
    an operator of the whole space as one, on every site or on its support;
    `on` embeds X on a larger set of sites, the whole space included.
    """

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = _sites(self.sites)
        if list(sites) != sorted(set(sites)):
            raise DimensionMismatchError(f"sites must be ascending and distinct: {sites}")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", as_operator(self.matrix))

    @classmethod
    def pauli(cls, spec: str, structure: TensorStructure,
              field: str = "pauli") -> "LocalOperator":
        """The Pauli product of a string like ``"Z1 X2 Z3"`` (1-based sites)
        on the sites of its X, Y and Z factors; a string that is not one of
        `structure` is refused naming `field`."""
        factors = sorted((s, letter) for letter, s in _pauli_factors(spec, structure, field)
                         if letter != "I")
        matrix = np.ones((1, 1))
        for _, letter in factors:  # site order: site 1 is the leftmost factor
            matrix = np.kron(matrix, _PAULI[letter])
        return cls(tuple(s for s, _ in factors), matrix)

    def on(self, sites: tuple[int, ...], structure: TensorStructure) -> np.ndarray:
        """X (x) I on the ascending 1-based `sites`, which hold this
        operator's: `embed` on the positions of its sites among them."""
        if tuple(sites) == self.sites:
            return self.matrix
        return embed(self.matrix, [sites.index(s) + 1 for s in self.sites],
                     TensorStructure([structure.dims[s - 1] for s in sites]))


def local_operator(a, structure: TensorStructure, field: str,
                   reduce: bool = False) -> LocalOperator:
    """`a` as an operator X (x) I of `structure`: a LocalOperator on sites of
    it with a matrix of their dimension, or a matrix of the whole space, held
    on every site or, with `reduce`, on its `_support`.  Every door of an
    operator passes here; an operator that does not fit, or without the
    `require_headroom` of X (x) I, is an InputFormatError naming `field`."""
    if isinstance(a, LocalOperator):
        if not set(a.sites) <= set(structure.sites):
            raise InputFormatError(field, "sites must be ascending and distinct in "
                                          f"1..{structure.n_sites}, got {list(a.sites)}")
        dim = prod(structure.dims[s - 1] for s in a.sites)
        if len(a.matrix) != dim:
            raise InputFormatError(field, f"matrix of dim {len(a.matrix)} does not fit sites "
                                          f"{list(a.sites)} of dimension {dim}")
    else:
        a = as_operator(a)
        if len(a) != structure.total_dim:
            raise InputFormatError(field, f"matrix of dim {len(a)} does not fit dims "
                                          f"{list(structure.dims)} of dimension "
                                          f"{structure.total_dim}")
        sites = _support(a, structure) if reduce else structure.sites
        a = LocalOperator(sites, _restrict(a, sites, structure) if reduce else a)
    require_headroom(a.matrix, field, "the operator", structure.total_dim // len(a.matrix))
    return a


class _Window:
    """The union of some supports (and of `sites`), on which an operator
    X (x) I (I on the `copies` dimensions of the other sites) is held as X;
    a window above MAX_MODEL_DIM is refused (DimensionCapError).

    spec(X (x) I) = spec(X), so eigenvalues, constants and eigenvalue verdicts
    (`spectral_tol`) are those of the full operators; a norm defect is
    sqrt(copies) ||X||_F, which `scaled_tol` and `is_hermitian` take with `copies`.
    """

    def __init__(self, structure: TensorStructure, *ops: LocalOperator, sites=()):
        self.structure = structure
        self.sites = tuple(sorted(set(sites).union(*(op.sites for op in ops))))
        self.copies = structure.total_dim // _dense_dim(prod(structure.dims[s - 1]
                                                             for s in self.sites))

    def embed(self, op: LocalOperator) -> np.ndarray:
        return op.on(self.sites, self.structure)

    def add(self, items) -> np.ndarray:
        """The sum from zero, in order, of kernel(*ops) over the `items`
        (kernel, *ops), each computed on the sites of its own operators.  An
        item whose last operator (a channel, or H) misses one of the others
        gives 0 and is left out."""
        d = self.structure.total_dim // self.copies
        dims = [self.structure.dims[s - 1] for s in self.sites]
        acc = np.zeros((d, d))
        for kernel, *ops in items:
            if all(_meet(ops[-1], x) for x in ops[:-1]):
                own = _Window(self.structure, *ops)
                x = as_operator(kernel(*map(own.embed, ops)))
                # in place: from +0.0, adding +0.0 off the pattern would change nothing
                acc = acc.astype(np.result_type(acc, x), copy=False)
                _put(acc, x, [self.sites.index(s) for s in own.sites], dims, add=True)
        return acc


def _meet(a: LocalOperator, b: LocalOperator) -> bool:
    return bool(set(a.sites) & set(b.sites))


def _sum_meeting(structure: TensorStructure, terms, l: LocalOperator) -> LocalOperator:
    """The `terms` that meet `l`, added as one operator on their sites."""
    win = _Window(structure, *(t for t in terms if _meet(l, t)))
    return LocalOperator(win.sites, win.add((np.asarray, t) for t in terms if _meet(l, t)))


def embed_sum(ops, structure: TensorStructure) -> np.ndarray:
    """The sum of the local `ops` as a matrix of the whole space, added in
    list order from zero."""
    return _Window(structure, sites=structure.sites).add((np.asarray, op) for op in ops)


def commutator(a, b) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator of shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


# The diagonal Pade approximant r_13 = q_13^{-1} p_13 of exp: the 1-norm
# theta_13 up to which r_13(A) = exp(A + E) with ||E|| <= u ||A|| in double
# precision, and the coefficients b_0..b_13 of p_13 (Higham, SIAM J. Matrix
# Anal. Appl. 26 (2005) 1179-1193).
_THETA_13 = 5.371920351148152
_B_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(a * t) by scaling and squaring.

    The Pade approximant of degree 13 is taken of a / 2^s, with s the fewest
    halvings that bring the exact 1-norm under theta_13, then squared s
    times (Higham 2005).  A diagonal matrix, 1x1 included, is exponentiated
    entrywise.  A NaN norm is a ValueError and an infinite one an
    OverflowError, read before either path.  The arithmetic stays in the
    dtype of ``a``: a complex matrix with real entries is not demoted.
    """
    a = _square(np.asarray(a)) * float(t)
    norm = float(np.linalg.norm(a, 1))
    if not norm < np.inf:  # no count of halvings
        raise (ValueError if np.isnan(norm) else OverflowError)(f"expm of 1-norm {norm}")
    if np.array_equal(a, np.diag(np.diagonal(a))):
        # exact; squaring would scale the Pade error of exp(z / 2^s) by 2^s
        return np.diag(np.exp(np.diagonal(a)))
    eye = np.eye(a.shape[0], dtype=a.dtype)
    s = 0 if norm <= _THETA_13 else ceil(log2(norm / _THETA_13))
    a = a / 2.0 ** s  # before squaring: (A / 2^s)^2 is finite where A^2 may not be
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B_13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (V - U)^{-1} (V + U), written so that the rounding falls on the
    # correction to I, which is small over a short step
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def haar_pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)
