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
from dataclasses import dataclass
from math import ceil, log2, prod

import numpy as np

from .errors import DimensionMismatchError, InputFormatError

DEFAULT_TOL = 1e-9

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


def require_headroom(a: np.ndarray, field: str, what: str) -> np.ndarray:
    """`a`, or an InputFormatError naming `field` if 16 ||a||_F^2 overflows:
    ||X||_F^2 bounds every entry of X'X, and the factor 16 leaves room for
    the sums of such products in G(V) and D(V)."""
    with np.errstate(over="ignore"):
        if not np.isfinite(16.0 * np.square(np.linalg.norm(a))):
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


def _frobenius(a: np.ndarray) -> float:
    """||a||_F, taken as m ||a / m|| with m = max |a_ij| where the squares of
    finite entries overflow; bitwise np.linalg.norm(a) everywhere else."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == np.inf:
        m = float(np.abs(a).max())
        if m < np.inf:
            norm = m * float(np.linalg.norm(a / m))
    return norm


def scaled_tol(a: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Relative tolerance tol * max(1, ||a||)."""
    return tol * max(1.0, _frobenius(a))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    return _frobenius(a - dagger(a)) <= scaled_tol(a, tol)


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of the Hermitian part of `a`."""
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(a)))[0])


def max_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(a)))[-1])


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefinite within tol * max(1, ||a||_2), Hermitian included."""
    a = as_operator(a)
    return is_hermitian(a, tol) and psd_spectrum(np.linalg.eigvalsh(hermitian_part(a)), tol)


def psd_spectrum(w: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """The ascending eigenvalues w of a Hermitian matrix are >= -tol * max(1, max |w|)."""
    return bool(w.size == 0 or w[0] >= -tol * max(1.0, float(np.abs(w).max())))


def is_projection(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    if not is_psd(a, tol):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is no projection
        square = a @ a
    return _frobenius(square - a) <= scaled_tol(a, tol)


@dataclass(frozen=True)
class TensorStructure:
    """Ordered subsystem dimensions of a composite Hilbert space."""

    dims: tuple[int, ...]

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"subsystem dimensions must be positive: {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @classmethod
    def qubits(cls, n: int) -> "TensorStructure":
        return cls((2,) * n)


def embed(local: np.ndarray, sites, structure: TensorStructure) -> np.ndarray:
    """Embed `local` acting on the given 1-based sites, identity elsewhere.

    ``local`` must have dimension equal to the product of the site dimensions,
    with its own factors ordered like ``sites``.
    """
    local = as_operator(local)
    sites0 = [int(s) - 1 for s in sites]
    n = structure.n_sites
    if len(set(sites0)) != len(sites0):
        raise DimensionMismatchError(f"sites must be distinct: {list(sites)}")
    if any(s < 0 or s >= n for s in sites0):
        raise DimensionMismatchError(f"site out of range 1..{n}: {list(sites)}")
    d_local = prod(structure.dims[s] for s in sites0)
    if local.shape[0] != d_local:
        raise DimensionMismatchError(
            f"local operator has dim {local.shape[0]}, sites require {d_local}"
        )
    others = [i for i in range(n) if i not in sites0]
    d_rest = prod(structure.dims[i] for i in others) if others else 1
    full = np.kron(local, np.eye(d_rest))
    perm = sites0 + others
    axis_dims = [structure.dims[p] for p in perm]
    order = list(np.argsort(perm))
    t = full.reshape(axis_dims + axis_dims)
    t = t.transpose(order + [n + o for o in order])
    d = structure.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


_PAULI_TOKEN = re.compile(r"^([IXYZ])(\d+)$")


def pauli_string(spec: str, structure: TensorStructure) -> np.ndarray:
    """Build a Pauli product from a string like ``"Z1 X2 Z3"`` (1-based sites).

    The product is a monomial: column j has one entry, in the row that flips
    the X and Y bits of j, with phase (-1)^(Z and Y bits of j) times i per Y.
    It is float64 unless the string holds a Y.
    """
    d = structure.total_dim
    cols = np.arange(d)
    rows = cols.copy()
    phase = np.ones(d)
    seen: set[int] = set()
    for token in spec.split():
        m = _PAULI_TOKEN.match(token.strip().upper())
        if m is None:
            raise InputFormatError("pauli", f"bad token {token!r} in {spec!r}")
        letter, site = m.group(1), int(m.group(2))
        if site in seen:
            raise InputFormatError("pauli", f"site {site} repeated in {spec!r}")
        seen.add(site)
        if site < 1 or site > structure.n_sites:
            raise InputFormatError("pauli", f"site {site} out of range in {spec!r}")
        if structure.dims[site - 1] != 2:
            raise InputFormatError("pauli", f"site {site} is not a qubit")
        stride = prod(structure.dims[site:])  # site 1 is the leftmost factor
        sign = 1 - 2 * ((cols // stride) % 2)  # +1 on level 0, -1 on level 1
        if letter in "XY":
            rows += stride * sign
        if letter == "Z":
            phase = phase * sign
        elif letter == "Y":  # Y e0 = i e1, Y e1 = -i e0
            phase = phase * (1j * sign)
    out = np.zeros((d, d), dtype=phase.dtype)
    out[rows, cols] = phase
    return out


def commutator(a, b) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator of shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


# Diagonal Pade approximants r_m = q_m^{-1} p_m of exp, by degree m: the
# 1-norm theta_m up to which r_m(A) = exp(A + E) with ||E|| <= u ||A|| in
# double precision, and the coefficients b_0..b_m of p_m (Higham, SIAM J.
# Matrix Anal. Appl. 26 (2005) 1179-1193).
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_B_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(a * t) by scaling and squaring.

    The lowest Pade degree of 3, 5, 7, 9 whose bound covers the exact 1-norm
    is used; above that, degree 13 on a / 2^s with s the fewest halvings that
    bring the norm under theta_13, then s squarings (Higham 2005).  A
    diagonal matrix, 1x1 included, is exponentiated entrywise.  The
    arithmetic stays in the dtype of ``a``: a complex matrix with real
    entries is not demoted.
    """
    a = _square(np.asarray(a)) * float(t)
    if np.array_equal(a, np.diag(np.diagonal(a))):
        # exact; squaring would scale the Pade error of exp(z / 2^s) by 2^s
        return np.diag(np.exp(np.diagonal(a)))
    eye = np.eye(a.shape[0], dtype=a.dtype)
    norm = float(np.linalg.norm(a, 1))
    s = 0
    for theta, b in _PADE:
        if norm <= theta:
            a2 = a @ a
            even = [eye, a2]  # A^0, A^2, ..., A^(m-1)
            while len(even) < len(b) // 2:
                even.append(even[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
            v = sum(b[2 * k] * p for k, p in enumerate(even))
            break
    else:
        s = max(0, ceil(log2(norm / _THETA_13)))
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
    # correction to I: the column sums of a Liouvillian's propagator, which
    # carry the trace of the propagated state, then stay exact more often
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def haar_pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)
