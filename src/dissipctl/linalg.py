"""Dense complex linear algebra and Hilbert-space composition primitives.

Operators are plain numpy arrays of dtype complex128.  Multi-site operators
are assembled with Kronecker products in big-endian site order: site 1 is the
leftmost factor.  Basis index 0 of a qubit is the upper level, so SIGMA_MINUS
maps e0 to e1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, InputFormatError, NonHermitianError

DEFAULT_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)

_PAULI_BY_LETTER = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
}


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack (..., n, n)."""
    a = np.asarray(a).conj()
    return a.swapaxes(-1, -2) if a.ndim > 1 else a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


def scaled_tol(a: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Relative tolerance tol * max(1, ||a||)."""
    return tol * max(1.0, float(np.linalg.norm(a)))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    return float(np.linalg.norm(a - dagger(a))) <= scaled_tol(a, tol)


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of the Hermitian part of `a`."""
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(a)))[0])


def max_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(a)))[-1])


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefinite within tol * max(1, ||a||_2), Hermitian included."""
    a = as_operator(a)
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(hermitian_part(a))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return bool(w.size == 0 or w[0] >= -tol * scale)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    return float(np.linalg.norm(dagger(a) @ a - np.eye(a.shape[0]))) <= scaled_tol(a, tol)


def is_projection(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    if not is_psd(a, tol):
        return False
    return float(np.linalg.norm(a @ a - a)) <= scaled_tol(a, tol)


def kron(a, b) -> np.ndarray:
    return np.kron(as_operator(a), as_operator(b))


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
    full = np.kron(local, np.eye(d_rest, dtype=complex))
    perm = sites0 + others
    axis_dims = [structure.dims[p] for p in perm]
    order = list(np.argsort(perm))
    t = full.reshape(axis_dims + axis_dims)
    t = t.transpose(order + [n + o for o in order])
    d = structure.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


_PAULI_TOKEN = re.compile(r"^([IXYZ])(\d+)$")


def pauli_string(spec: str, structure: TensorStructure) -> np.ndarray:
    """Build a Pauli product from a string like ``"Z1 X2 Z3"`` (1-based sites)."""
    out = np.eye(structure.total_dim, dtype=complex)
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
        if letter != "I":
            out = out @ embed(_PAULI_BY_LETTER[letter], [site], structure)
    return out


@dataclass
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigendecomposition restricted to Hermitian input."""
    a = as_operator(a)
    if not is_hermitian(a, tol):
        raise NonHermitianError(
            f"hermitian_eig requires a Hermitian matrix; defect {np.linalg.norm(a - dagger(a)):.3e}"
        )
    w, q = np.linalg.eigh(hermitian_part(a))
    return Spectrum(values=w, vectors=q)


def pinv(a, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below rtol * s_max are zeroed."""
    return np.linalg.pinv(np.asarray(a, dtype=complex), rcond=rtol)


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n * n:
        raise DimensionMismatchError(f"vector of length {v.size} is not {n}x{n}")
    return v.reshape(n, n, order="F")


def commutator(a, b) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator of shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(a * t) (scaling-and-squaring with Pade)."""
    return scipy.linalg.expm(np.asarray(a, dtype=complex) * float(t))


def sqrtm_psd(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues within tolerance of zero are flushed to zero first; the square
    root would otherwise amplify rounding noise from 1e-16 to 1e-8.
    """
    s = hermitian_eig(a, tol)
    w = s.values.copy()
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    w[w < tol * scale] = 0.0
    return (s.vectors * np.sqrt(w)) @ dagger(s.vectors)


# -- random ensembles (used by sampling-based checks and tests) --------------


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * hermitian_part(g)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def haar_pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    r = rank or n
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    u = haar_unitary(rng, n)
    cols = u[:, :rank]
    return cols @ dagger(cols)
