import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipctl.errors import DimensionMismatchError, InputFormatError, NonHermitianError
from dissipctl.lindblad import liouvillian
from dissipctl.models import REGISTRY, build
from dissipctl.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LocalOperator,
    TensorStructure,
    _restrict,
    _support,
    as_operator,
    commutator,
    embed,
    expm,
    is_hermitian,
    is_projection,
    is_psd,
    pauli_string,
    require_headroom,
    scaled_tol,
    spectral_tol,
)
from oracles import (
    hermitian_eig,
    is_unitary,
    kron,
    pinv,
    random_hermitian,
    random_projection,
    unvec,
    vec,
)

I2 = np.eye(2, dtype=complex)


def charpoly_roots(a):
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients of the
    characteristic polynomial, then polynomial root finding."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m).real / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1.0]))

    def test_projector_transpose_kron(self):
        v = np.diag([1.0, 0.0])
        assert np.array_equal(kron(v.T, v), np.diag([1.0, 0, 0, 0]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_mixed_product(self, seed):
        rng = np.random.default_rng(seed)
        da, db = rng.integers(2, 5), rng.integers(2, 5)
        a, c = (rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da)) for _ in range(2))
        b, d = (rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db)) for _ in range(2))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-10)


class TestEmbed:
    def test_single_site_left(self):
        s = TensorStructure((2, 2))
        assert np.array_equal(embed(PAULI_Z, [1], s), np.kron(PAULI_Z, I2))

    def test_single_site_middle(self):
        s = TensorStructure((2, 2, 2))
        assert np.array_equal(embed(PAULI_X, [2], s), np.kron(np.kron(I2, PAULI_X), I2))

    def test_three_site_string_matches_explicit_kron(self):
        s = TensorStructure((2, 2, 2, 2))
        local = np.kron(np.kron(PAULI_Z, PAULI_X), PAULI_Z)
        explicit = np.kron(local, I2)
        assert np.allclose(embed(local, [1, 2, 3], s), explicit, atol=0)

    def test_identity_embeds_to_identity(self):
        s = TensorStructure((2, 3, 2))
        assert np.allclose(embed(np.eye(3, dtype=complex), [2], s), np.eye(12))

    def test_permuted_sites(self):
        s = TensorStructure((2, 2))
        # local ordered (site2, site1): embedding must swap the factors
        local = np.kron(PAULI_X, PAULI_Z)
        assert np.allclose(embed(local, [2, 1], s), np.kron(PAULI_Z, PAULI_X))

    def test_errors(self):
        s = TensorStructure((2, 2))
        with pytest.raises(DimensionMismatchError):
            embed(np.eye(3, dtype=complex), [1], s)
        with pytest.raises(DimensionMismatchError):
            embed(PAULI_Z, [3], s)
        with pytest.raises(DimensionMismatchError):
            embed(np.eye(4, dtype=complex), [1, 1], s)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_elementwise_oracle_on_qudits(self, seed):
        # brute-force oracle: <i|emb|j> = local[(i_sites),(j_sites)] * prod of
        # Kronecker deltas on the untouched sites
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        s = TensorStructure(dims)
        n_sites = int(rng.integers(1, 3))
        sites = list(rng.permutation(3)[:n_sites] + 1)
        d_local = int(np.prod([dims[x - 1] for x in sites]))
        local = rng.standard_normal((d_local, d_local)) \
            + 1j * rng.standard_normal((d_local, d_local))
        got = embed(local, sites, s)

        import itertools
        total = s.total_dim
        expected = np.zeros((total, total), dtype=complex)
        basis = list(itertools.product(*[range(d) for d in dims]))
        local_dims = [dims[x - 1] for x in sites]
        for row, i_tuple in enumerate(basis):
            for col, j_tuple in enumerate(basis):
                if any(i_tuple[x] != j_tuple[x] for x in range(3)
                       if (x + 1) not in sites):
                    continue
                li = lj = 0
                for d, x in zip(local_dims, sites):
                    li = li * d + i_tuple[x - 1]
                    lj = lj * d + j_tuple[x - 1]
                expected[row, col] = local[li, lj]
        assert np.allclose(got, expected, atol=1e-12)


class TestSupport:
    """`support` leaves a site out only when the operator is bitwise the
    identity there; `restrict` then takes the factor on the other sites."""

    def test_a_1e_17_difference_keeps_the_site(self):
        s = TensorStructure.qubits(2)
        y = np.array([[1e-3, -1.7], [0.2, 0.9]])
        a = np.kron(y, np.eye(2))
        assert _support(a, s) == (1,)
        # 1e-17 on one diagonal block of site 2, or in an off-diagonal block
        # of site 2: either makes site 2 part of the support
        diagonal, off_diagonal = a.copy(), a.copy()
        diagonal[1, 1] += 1e-17
        off_diagonal[0, 1] = 1e-17
        assert diagonal[1, 1] != diagonal[0, 0]
        assert _support(diagonal, s) == _support(off_diagonal, s) == (1, 2)

    def test_qutrit_and_qubit(self):
        s = TensorStructure((3, 2))
        rng = np.random.default_rng(40)
        x3, x2 = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
        assert _support(embed(x3, [1], s), s) == (1,)
        assert _support(embed(x2, [2], s), s) == (2,)
        assert _support(np.kron(x3, x2), s) == (1, 2)
        assert np.array_equal(_restrict(embed(x3, [1], s), (1,), s), x3)
        assert np.array_equal(_restrict(embed(x2, [2], s), (2,), s), x2)

    def test_complex_pauli(self):
        s = TensorStructure.qubits(3)
        for string, sites in (("Y2", (2,)), ("X1 Y3", (1, 3)), ("Y1 Y2 Y3", (1, 2, 3))):
            a = pauli_string(string, s)
            assert a.dtype == complex and _support(a, s) == sites
            assert np.array_equal(embed(_restrict(a, sites, s), sites, s), a)
        # an imaginary 1e-300 at one entry where Y1 is 0: it lies in a
        # diagonal block of site 2 and an off-diagonal block of site 3
        a = pauli_string("Y1", s)
        a[0, 5] = 1e-300j
        assert _support(a, s) == (1, 2, 3)

    def test_zero_and_identity(self):
        s = TensorStructure((2, 3))
        for a, value in ((np.zeros((6, 6)), 0.0), (np.eye(6), 1.0), (2.5 * np.eye(6), 2.5)):
            assert _support(a, s) == ()
            assert np.array_equal(_restrict(a, (), s), [[value]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _support(np.eye(4), TensorStructure((3,)))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_support_of_a_generic_embedded_operator(self, seed):
        # a random local operator on random sites of random qudits acts on
        # every one of them, and restrict inverts embed on those sites
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=4))
        s = TensorStructure(dims)
        sites = sorted(int(x) + 1 for x in rng.permutation(4)[:int(rng.integers(1, 4))])
        d_local = math.prod(dims[x - 1] for x in sites)
        local = rng.standard_normal((d_local, d_local))
        if rng.integers(2):
            local = local + 1j * rng.standard_normal((d_local, d_local))
        a = embed(local, sites, s)
        assert _support(a, s) == tuple(sites)
        assert np.array_equal(_restrict(a, sites, s), local)


class TestLocalOperator:
    """X (x) I held as X: `on` embeds it, `support` and `restrict` give it
    back, and the headroom check is the one of the dense operator."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_embed_and_restrict_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=4))
        s = TensorStructure(dims)
        sites = tuple(sorted(int(x) + 1 for x in rng.permutation(4)[:int(rng.integers(1, 4))]))
        d_local = math.prod(dims[x - 1] for x in sites)
        op = LocalOperator(sites, rng.standard_normal((d_local, d_local)))
        dense = op.on((1, 2, 3, 4), s)
        assert np.array_equal(dense, embed(op.matrix, sites, s))
        assert _support(dense, s) == sites
        assert np.array_equal(_restrict(dense, sites, s), op.matrix)
        # on a window of more sites: the dense operator restricted to it
        window = tuple(sorted({*sites, int(rng.integers(1, 5))}))
        assert np.array_equal(op.on(window, s), _restrict(dense, window, s))

    @given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=5), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_pauli_on_its_sites(self, letters, rnd):
        s = TensorStructure.qubits(len(letters))
        sites = list(range(1, len(letters) + 1))
        rnd.shuffle(sites)
        text = " ".join(f"{letters[x - 1]}{x}" for x in sites)
        op = LocalOperator.pauli(text, s)
        assert op.sites == tuple(x for x in range(1, len(letters) + 1) if letters[x - 1] != "I")
        dense = pauli_string(text, s)
        assert np.array_equal(op.on(tuple(range(1, len(letters) + 1)), s), dense)
        assert np.array_equal(op.matrix, _restrict(dense, op.sites, s))
        assert op.matrix.dtype == as_operator(dense).dtype  # Y Y is real

    @pytest.mark.parametrize("a", [1e152, 2e153, 1e154])
    def test_headroom_is_that_of_the_dense_operator(self, a):
        # a Z on one qubit of three: 16 ||X||_F^2 = 32 a^2, dense 16 * 4 * 2 a^2;
        # at a = 2e153 only the dense value overflows
        s = TensorStructure.qubits(3)
        op = LocalOperator((2,), a * PAULI_Z)

        def raises(check) -> bool:
            try:
                check()
            except InputFormatError as exc:
                assert str(exc) == "f: the operator has a squared norm too close to the float range"
                return True
            return False

        dense = raises(lambda: require_headroom(op.on((1, 2, 3), s), "f", "the operator"))
        assert dense == (a > 1.2e153)
        assert raises(lambda: op.require_headroom(s, "f", "the operator")) == dense

    def test_empty_support(self):
        s = TensorStructure.qubits(3)
        for scale in (0.0, 2.0):
            dense = scale * np.eye(8)
            assert _support(dense, s) == ()
            op = LocalOperator((), _restrict(dense, (), s))
            assert np.array_equal(op.matrix, [[scale]])
            assert np.array_equal(op.on((1, 2, 3), s), dense)
            assert np.array_equal(op.on((), s), [[scale]])
        assert LocalOperator.pauli("I2", s).sites == ()

    def test_sites_must_ascend(self):
        with pytest.raises(DimensionMismatchError):
            LocalOperator((2, 1), np.eye(4))


class TestPauliString:
    def test_zxz(self):
        s = TensorStructure((2, 2, 2))
        expected = np.kron(np.kron(PAULI_Z, PAULI_X), PAULI_Z)
        assert np.allclose(pauli_string("Z1 X2 Z3", s), expected)

    def test_identity_tokens(self):
        s = TensorStructure((2, 2))
        assert np.allclose(pauli_string("I1 Z2", s), np.kron(I2, PAULI_Z))

    @given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=6), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_monomial_matches_dense_product(self, letters, rnd):
        # oracle: the dense product of embedded single-site Paulis, in the
        # string's own (shuffled) site order
        s = TensorStructure.qubits(len(letters))
        sites = list(range(1, len(letters) + 1))
        rnd.shuffle(sites)
        tokens = [f"{letters[x - 1]}{x}" for x in sites]
        dense = np.eye(s.total_dim, dtype=complex)
        for x in sites:
            factor = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}[letters[x - 1]]
            dense = dense @ embed(factor, [x], s)
        got = pauli_string(" ".join(tokens), s)
        assert np.array_equal(got, dense)
        assert got.dtype == (np.complex128 if "Y" in letters else np.float64)

    def test_qubit_sites_of_a_qudit_structure(self):
        s = TensorStructure((3, 2, 2))
        expected = np.kron(np.eye(3), np.kron(PAULI_Y, PAULI_X))
        assert np.array_equal(pauli_string("Y2 X3", s), expected)


class TestDtypeRule:
    def test_real_data_is_stored_as_float64(self):
        for a in ([[1, 0], [0, 1]], np.eye(2, dtype=complex), np.eye(2, dtype=np.complex64),
                  np.array([[0, 1j], [1j, 0]]) * 1j):
            out = as_operator(a)
            assert out.dtype == np.float64
            assert np.array_equal(out, np.real(a))

    def test_complex_data_stays_complex128(self):
        assert as_operator(PAULI_Y).dtype == np.complex128
        assert as_operator(np.array([[1, 1e-300j], [0, 1]])).dtype == np.complex128


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(spec.values, [0, 1, 2])

    def test_pauli_x(self):
        spec = hermitian_eig(PAULI_X)
        assert np.allclose(spec.values, [-1, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_characteristic_polynomial_roots(self, dim):
        rng = np.random.default_rng(42 + dim)
        a = random_hermitian(rng, dim)
        spec = hermitian_eig(a)
        assert np.allclose(spec.values, charpoly_roots(a), atol=1e-8)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_orthonormal_and_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        spec = hermitian_eig(a)
        q = spec.vectors
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10
        recon = (q * spec.values) @ q.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1, np.linalg.norm(a))


class TestPinv:
    def test_projector_kron(self):
        assert np.array_equal(pinv(np.diag([1.0, 0, 0, 0])), np.diag([1.0, 0, 0, 0]))

    def test_identity(self):
        assert np.allclose(pinv(np.eye(5)), np.eye(5), atol=1e-12)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            if trial % 2:
                # force rank deficiency
                a[:, -1] = a[:, 0]
            ap = pinv(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(a @ ap @ a - a) <= 1e-10 * scale
            assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-10 * scale
            assert np.linalg.norm((a @ ap).conj().T - a @ ap) <= 1e-10 * scale
            assert np.linalg.norm((ap @ a).conj().T - ap @ a) <= 1e-10 * scale


class TestVec:
    def test_column_stacking(self):
        a = np.array([[1, 3], [2, 4]], dtype=complex)
        assert np.array_equal(vec(a), np.array([1, 2, 3, 4], dtype=complex))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(unvec(vec(a), n), a)

    def test_vec_of_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                       for _ in range(3))
            assert np.allclose(vec(a @ x @ b), kron(b.T, a) @ vec(x), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            unvec(np.ones(5), 2)


class TestCommutatorExpm:
    def test_pauli_algebra(self):
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)

    def test_disjoint_cluster_strings_commute(self):
        s = TensorStructure((2,) * 5)
        w3 = pauli_string("Z2 X3 Z4", s)
        for site in (1, 2, 4, 5):
            z = embed(PAULI_Z, [site], s)
            assert np.linalg.norm(commutator(z, w3)) < 1e-12

    def test_expm_diagonal(self):
        out = expm(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([np.exp(-1), np.exp(-2)]), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_expm_group_law(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 3)
        s, t = rng.uniform(-1, 1, 2)
        assert np.allclose(expm(a, s) @ expm(a, t), expm(a, s + t), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(PAULI_X, np.eye(3))


def relative_error(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestExpmOracle:
    """expm against scipy.linalg.expm as the independent oracle, to 1e-12
    relative, plus cases whose exponential is known exactly."""

    # 1-norm bands, one inside each Pade degree's range (3, 5, 7, 9, 13
    # unscaled) and one that needs up to five squarings
    @pytest.mark.parametrize("band", [(1e-3, 1.4e-2), (1.6e-2, 0.25), (0.26, 0.95),
                                      (0.96, 2.09), (2.1, 5.37), (5.38, 1e2)],
                             ids=["pade3", "pade5", "pade7", "pade9", "pade13", "squaring"])
    @given(n=st.integers(1, 20), where=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_complex_matrix(self, band, n, where, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lo, hi = band
        a *= lo * (hi / lo) ** where / np.linalg.norm(a, 1)
        assert relative_error(expm(a), scipy.linalg.expm(a)) <= 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))

    # -85.9 - 1.46j went through degree 13 and four squarings to 1.3e-12
    @pytest.mark.parametrize("z", [0.3, -2.0 + 1.5j, 40.0j, -75.0, -85.88763938676736 - 1.4571892700025086j])
    def test_one_by_one(self, z):
        out = expm(np.array([[z]]))
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.exp(z)) <= 1e-12 * abs(np.exp(z))

    @pytest.mark.parametrize("theta", [0.01, 0.2, 0.5, 2.0, 5.0, 40.0])
    def test_rotation_generator(self, theta):
        # exp [[0, -theta], [theta, 0]] is the rotation by theta; its 1-norm
        # equals its spectral radius, so each degree and the squaring are tight
        c, s = np.cos(theta), np.sin(theta)
        out = expm(np.array([[0.0, -theta], [theta, 0.0]]))
        assert relative_error(out, np.array([[c, -s], [s, c]])) <= 1e-12

    @pytest.mark.parametrize("k, t", [(2, 1.0), (4, 0.5), (6, 3.0)])
    def test_nilpotent_jordan_block(self, k, t):
        # exp(tN) = sum_j (tN)^j / j!, a finite sum since N^k = 0; I + N for k = 2
        n = np.eye(k, k=1)
        exact = sum(np.linalg.matrix_power(t * n, j) / math.factorial(j) for j in range(k))
        assert relative_error(expm(n, t), exact) <= 1e-12

    def test_registry_liouvillians(self):
        # check --simulate samples t_final = 20 at 201 points, so dt = 0.1;
        # evolve propagates by expm up to dimension 16
        checked = 0
        for name in sorted(REGISTRY):
            model = build(name).model
            if model.dim <= 16:
                lam = liouvillian(model)
                assert relative_error(expm(lam, 0.1), scipy.linalg.expm(lam * 0.1)) <= 1e-12
                checked += 1
        assert checked >= 5

    def test_norm_that_needs_more_than_511_halvings(self):
        # two_level(0, 1e100) decays at rate 1e200, so by t = 0.1 every state
        # is tr(rho) diag(0, 1): P = vec(diag(0, 1)) vec(I)'.  The 1-norm of
        # Lambda t is 2e199, s about 660, and 4^s overflows a float;
        # scipy returns NaN here, so the closed form is the oracle
        lam = liouvillian(build("two_level(0,1e100)").model)
        exact = np.outer(vec(np.diag([0.0, 1.0])), vec(np.eye(2)))
        assert np.max(np.abs(expm(lam, 0.1) - exact)) <= 1e-12


class TestPredicates:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_psd_iff_min_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = random_hermitian(rng, n)
        w = np.linalg.eigvalsh(a)
        tol = 1e-9 * max(1.0, np.abs(w).max())
        assert is_psd(a) == (w[0] >= -tol)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_projection_implies_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        p = random_projection(rng, n, int(rng.integers(1, n)))
        assert is_projection(p)
        assert is_hermitian(p)
        assert is_psd(p)

    def test_tolerance_of_entries_whose_squares_overflow(self):
        # ||a||_F = sqrt(2 + 1e-10) 1e155, but its square is beyond the float
        # range: the tolerance stays finite and an asymmetry of 1e150 is seen
        a = np.array([[1e155, 0.0], [1e150, 1e155]])
        assert scaled_tol(a) == pytest.approx(1e-9 * math.sqrt(2 + 1e-10) * 1e155, rel=1e-12)
        assert scaled_tol(1j * a) == pytest.approx(scaled_tol(a), rel=1e-12)
        assert not is_hermitian(a)
        assert is_hermitian(a + a.T)

    def test_defects_whose_squares_overflow(self):
        # ||a - a'|| and a @ a overflow: the verdicts stand without a warning
        assert not is_hermitian([[1e155, 0.0], [1e155, 1e155]])
        for a in ([[1e155, 0.0], [0.0, 0.0]], [[1e155, 1e155j], [-1e155j, 1e155]]):
            assert is_psd(a) and not is_projection(a)

    @given(st.integers(0, 10**6), st.floats(-150, 75), st.floats(-12, -6))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_in_range_are_those_of_the_plain_norm(self, seed, exponent, noise):
        rng = np.random.default_rng(seed)
        p = random_projection(rng, 4, 2)
        e = 10.0 ** noise * rng.standard_normal((4, 4))
        for a in (p + e, p + e + e.T, 10.0 ** exponent * (p + e + e.T)):
            plain = float(np.linalg.norm(a - a.conj().T)) <= scaled_tol(a)
            assert is_hermitian(a) == plain
            plain = is_psd(a) and float(np.linalg.norm(a @ a - a)) <= scaled_tol(a)
            assert is_projection(a) == plain

    @given(st.integers(0, 10**6), st.floats(-300, 150))
    @settings(max_examples=40, deadline=None)
    def test_tolerance_in_range_is_the_plain_norm(self, seed, exponent):
        a = random_hermitian(np.random.default_rng(seed), 4, 10.0 ** exponent)
        assert scaled_tol(a, 1e-7) == 1e-7 * max(1.0, float(np.linalg.norm(a)))

    def test_unitary(self):
        assert is_unitary(PAULI_X)
        assert not is_unitary(np.diag([1.0, 0.5]))


@st.composite
def windowed_operators(draw):
    """(X, rng, (sites, structure), m): a random Hermitian X, real or complex,
    on random ascending sites of 2 to 4 qubits and qutrits, the generator
    that drew it, and the dimension m >= 2 of the other sites."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4), label="dims")
    structure = TensorStructure(dims)
    sites = sorted(draw(st.lists(st.integers(1, len(dims)), min_size=1,
                                 max_size=len(dims) - 1, unique=True), label="sites"))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    d = math.prod(dims[s - 1] for s in sites)
    x = random_hermitian(rng, d)
    if draw(st.booleans(), label="real"):
        x = x.real
    return x, rng, (sites, structure), structure.total_dim // d


def _anti_hermitian(rng: np.random.Generator, x: np.ndarray, norm: float) -> np.ndarray:
    """A random A = -A' of the dtype of x with ||A - A'||_F = norm."""
    g = rng.standard_normal(x.shape)
    if np.iscomplexobj(x):
        g = g + 1j * rng.standard_normal(x.shape)
    a = g - g.conj().T
    return a * (norm / np.linalg.norm(2 * a))


class TestCopies:
    """`scaled_tol`, `is_hermitian` and `is_psd` with `copies = m` are those
    of X (x) I_m, where ||X (x) I_m||_F = sqrt(m) ||X||_F."""

    @given(windowed_operators(), st.floats(-12, 3), st.floats(-14, -6), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_the_rules_of_x_are_those_of_its_dense_embedding(self, drawn, exponent, defect,
                                                             psd):
        x, rng, (sites, structure), m = drawn
        if psd:
            x = x @ x
        x = 10.0 ** exponent * x
        for a in (x, x + _anti_hermitian(rng, x, 10.0 ** (exponent + defect))):
            dense = embed(a, sites, structure)
            assert scaled_tol(a, 1e-9, m) == pytest.approx(scaled_tol(dense), rel=1e-12)
            assert is_hermitian(a, 1e-9, m) == is_hermitian(dense)
            assert is_psd(a, 1e-9, m) == is_psd(dense)

    @given(windowed_operators(), st.floats(0.05, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_copies_decide_a_defect_between_the_two_thresholds(self, drawn, norm, where):
        # with ||X||_F < 1, the defect delta = ||X - X'||_F passes the test of
        # X alone (delta <= tol) but fails that of X (x) I_m when
        # sqrt(m) delta > tol max(1, sqrt(m) ||X||_F); delta is drawn between
        # those two thresholds
        x, rng, (sites, structure), m = drawn
        x = x @ x * (norm / np.linalg.norm(x @ x))  # PSD, ||X||_F = norm
        lo, hi = 1e-9 * max(1.0, math.sqrt(m) * norm) / math.sqrt(m), 1e-9
        a = x + _anti_hermitian(rng, x, lo + where * (hi - lo))
        dense = embed(a, sites, structure)
        assert is_hermitian(a) and is_psd(a)  # copies ignored
        assert not is_hermitian(dense) and not is_psd(dense)
        assert not is_hermitian(a, 1e-9, m) and not is_psd(a, 1e-9, m)
        assert scaled_tol(a, 1e-9, m) == pytest.approx(scaled_tol(dense), rel=1e-12)


def _inline_spectral_tol(w: np.ndarray, tol: float) -> float:
    """The spectral rule written out, the reference of `spectral_tol`."""
    return tol * max(1.0, float(np.abs(w).max()))


class TestSpectralTol:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1,
                    max_size=12), st.floats(1e-16, 1e-2))
    @settings(max_examples=200, deadline=None)
    def test_is_the_inline_rule(self, values, tol):
        w = np.sort(np.array(values))
        assert spectral_tol(w, tol).hex() == _inline_spectral_tol(w, tol).hex()

    @pytest.mark.parametrize("w", [[-np.inf, 0.5], [1.0, np.inf], [0.2, np.nan], [np.nan],
                                   [np.nan, np.inf], [-0.0], [-3.0, 2.0]])
    def test_non_finite_spectra_keep_the_inline_value(self, w):
        # a NaN maximum leaves max(1.0, nan) = 1.0, an infinite one inf
        w = np.array(w)
        assert spectral_tol(w, 1e-9).hex() == _inline_spectral_tol(w, 1e-9).hex()

    def test_empty_spectrum(self):
        # the Schur constant took max |w| with initial=0.0, the closed form 1.0
        empty = np.zeros(0)
        assert spectral_tol(empty, 1e-9).hex() == (1e-9 * max(1.0, float(
            np.abs(empty).max(initial=0.0)))).hex() == (1e-9 * 1.0).hex()
