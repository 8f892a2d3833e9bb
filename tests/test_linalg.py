import time
import warnings

import numpy as np
import pytest

from redclust import (
    ConvergenceError,
    DegenerateInputError,
    InvalidInputError,
    center,
    orthogonalize,
    svd,
    sym_eig,
)
from redclust.linalg import frobenius


def polar_factor(w):
    """Orthogonal polar factor U V^T of W = U S V^T, from numpy's SVD."""
    u, _, vt = np.linalg.svd(w)
    return u @ vt


def reconstruction_error(x, factors):
    return frobenius(x - factors.reconstruct()) / max(1.0, frobenius(x))


def rotated_spectrum(values, seed):
    """Q diag(values) Q^T for a random orthogonal Q."""
    n = len(values)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    a = (q * np.asarray(values, dtype=float)) @ q.T
    return (a + a.T) / 2.0


def constant_column_covariance():
    """Sample covariance of data whose column 2 is constant (exactly centred to 0)."""
    x = np.random.default_rng(31).normal(size=(50, 4))
    x[:, 2] = 3.0
    centered, _ = center(x)
    assert not centered[:, 2].any()
    return centered.T @ centered / 49.0


# Columns far below the largest one: the product of two squared column
# norms underflows to 0, which must not stall the Jacobi stopping test.
TINY_COLUMNS_SYMMETRIC = np.array(
    [[0.0, 6.36177169e-166, 6.22764388e-82], [6.36177169e-166, 0.0, 0.0], [6.22764388e-82, 0.0, 1.0]]
)
TINY_COLUMNS = np.array([[1.0, 0.0, 0.0], [0.0, 1e-90, 1e-90], [0.0, 0.0, 1e-90]])


def eigh_descending(a):
    values, vectors = np.linalg.eigh(a)
    return values[::-1], vectors[:, ::-1]


def assert_sign_convention(vectors):
    """Each column's largest-magnitude entry is positive."""
    for k in range(vectors.shape[1]):
        j = int(np.argmax(np.abs(vectors[:, k])))
        assert vectors[j, k] > 0, f"column {k}"


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert np.allclose(f.s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_with_negative_entry(self):
        x = np.array([[3.0, 0.0], [0.0, -2.0]])
        f = svd(x)
        # singular values are the absolute values; the sign moves into u/v
        assert np.allclose(f.s, [3.0, 2.0], atol=1e-12)
        assert reconstruction_error(x, f) < 1e-12

    def test_random_matrices_reconstruct(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(size=(5, 4))
            f = svd(x)
            assert reconstruction_error(x, f) <= 1e-8
            assert np.all(np.diff(f.s) <= 1e-14)
            assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-10)
            assert np.allclose(f.v.T @ f.v, np.eye(4), atol=1e-10)
            # cross-check: squared singular values are the eigenvalues of X^T X
            pairs = sym_eig(x.T @ x)
            assert np.allclose(f.s**2, pairs.values, atol=1e-7)

    def test_wide_matrix(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 6))
        f = svd(x)
        assert f.u.shape == (3, 3)
        assert f.v.shape == (6, 3)
        assert reconstruction_error(x, f) <= 1e-8

    def test_rank_deficient_trailing_zeros(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 2))
        x = base @ rng.normal(size=(2, 4))  # rank 2 in a 5x4 matrix
        f = svd(x)
        assert f.s[2] == 0.0 and f.s[3] == 0.0
        assert reconstruction_error(x, f) <= 1e-8
        assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-10)

    def test_zero_matrix(self):
        f = svd(np.zeros((3, 2)))
        assert np.all(f.s == 0.0)
        assert np.allclose(f.u.T @ f.u, np.eye(2), atol=1e-12)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        f1 = svd(x)
        f2 = svd(x.copy())
        assert np.array_equal(f1.u, f2.u)
        for k in range(3):
            j = np.argmax(np.abs(f1.v[:, k]))
            assert f1.v[j, k] > 0

    @pytest.mark.parametrize("shape", [(9, 4), (4, 4), (3, 7)])
    def test_sign_convention(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for _ in range(10):
            assert_sign_convention(svd(rng.normal(size=shape)).v)

    @pytest.mark.parametrize("scale", [2.0**-362, 2.0**300])
    def test_power_of_two_scaling_is_exact(self, scale):
        # 2**-362 ~ 1e-109: squared column norms multiply to below the
        # smallest double, which must not stall the stopping test
        x = np.random.default_rng(16).normal(size=(5, 3))
        f, scaled = svd(x), svd(scale * x)
        assert np.array_equal(scaled.s, scale * f.s)
        assert np.array_equal(scaled.u, f.u)
        assert np.array_equal(scaled.v, f.v)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [12, 60])
    def test_centred_square_completes_basis(self, n):
        # the null direction is the all-ones vector, far from every e_j
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n))
        x -= x.mean(axis=0)
        f = svd(x)
        assert f.s[-1] == 0.0
        assert frobenius(x - f.reconstruct()) <= 1e-8 * max(1.0, frobenius(x))
        assert np.max(np.abs(f.u.T @ f.u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= 1e-10

    def test_matches_numpy_singular_values(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            x = rng.normal(size=(8, 5))
            f = svd(x)
            ref = np.linalg.svd(x, compute_uv=False)
            assert np.allclose(f.s, ref, atol=1e-10)


class TestSymEig:
    def test_diagonal(self):
        pairs = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(pairs.values, [4.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(pairs.vectors), np.eye(2), atol=1e-12)

    def test_classic_2x2(self):
        pairs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(pairs.values, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(pairs.vectors[:, 0]), [r, r], atol=1e-12)
        assert np.allclose(np.abs(pairs.vectors[:, 1]), [r, r], atol=1e-12)

    def test_random_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            a = (a + a.T) / 2.0
            pairs = sym_eig(a)
            assert abs(np.sum(pairs.values) - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
            assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(6), atol=1e-10)
            for i in range(6):
                resid = a @ pairs.vectors[:, i] - pairs.values[i] * pairs.vectors[:, i]
                assert frobenius(resid[:, None]) <= 1e-8 * max(1.0, frobenius(a))
            assert np.all(np.diff(pairs.values) <= 1e-12)

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(7, 7))
        a = a @ a.T
        pairs = sym_eig(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(pairs.values, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))

    SEPARATED = {
        "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "plus-minus pairs": rotated_spectrum([3.0, 1.0, -1.0, -3.0], seed=1),
        "negative definite": rotated_spectrum([-0.5, -1.0, -2.0, -4.0, -8.0], seed=2),
        "indefinite, zero row": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        "constant-column covariance": constant_column_covariance(),
        "wide spread": rotated_spectrum(np.linspace(-7.0, 11.0, 12), seed=3),
    }

    @pytest.mark.parametrize("name", SEPARATED)
    def test_vectors_match_numpy(self, name):
        a = self.SEPARATED[name]
        pairs = sym_eig(a)
        ref_values, ref_vectors = eigh_descending(a)
        scale = max(1.0, float(np.abs(ref_values).max()))
        assert np.max(np.abs(pairs.values - ref_values)) <= 1e-12 * scale
        for k in range(len(a)):
            got, ref = pairs.vectors[:, k], ref_vectors[:, k]
            assert min(frobenius(got - ref), frobenius(got + ref)) <= 1e-10, f"column {k}"
        assert_sign_convention(pairs.vectors)

    @pytest.mark.parametrize(
        "a, zero_col",
        [
            (SEPARATED["indefinite, zero row"], 2),
            (SEPARATED["constant-column covariance"], 2),
            (np.zeros((3, 3)), 0),
        ],
    )
    def test_zero_row_keeps_exact_zero_eigenvalue(self, a, zero_col):
        pairs = sym_eig(a)
        k = int(np.flatnonzero(pairs.values == 0.0)[0])
        assert np.array_equal(pairs.vectors[:, k], np.eye(len(a))[:, zero_col])

    def test_repeated_eigenvalues_span_numpy_eigenspaces(self):
        spectrum = [2.0, 2.0, 2.0, 0.5, -1.0, -1.0]
        a = rotated_spectrum(spectrum, seed=4)
        pairs = sym_eig(a)
        ref_values, ref_vectors = eigh_descending(a)
        assert np.max(np.abs(pairs.values - ref_values)) <= 1e-12 * 2.0
        assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(6))) <= 1e-12
        for block in ([0, 1, 2], [3], [4, 5]):
            got = pairs.vectors[:, block] @ pairs.vectors[:, block].T
            ref = ref_vectors[:, block] @ ref_vectors[:, block].T
            assert np.max(np.abs(got - ref)) <= 1e-10, block
        assert_sign_convention(pairs.vectors)

    @pytest.mark.parametrize("scale", [2.0**-43, 2.0**-362, 2.0**300])
    def test_power_of_two_scaling_is_exact(self, scale):
        # the stopping test is relative, so a 1e-13-scale matrix is
        # diagonalized as fully as a unit-scale one
        a = self.SEPARATED["plus-minus pairs"]
        pairs, scaled = sym_eig(a), sym_eig(scale * a)
        assert np.array_equal(scaled.values, scale * pairs.values)
        assert np.array_equal(scaled.vectors, pairs.vectors)

    def test_properties_on_random_symmetric(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def symmetric(draw):
            n = draw(st.integers(1, 8))
            entries = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)
            upper = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
            a = np.triu(upper) + np.triu(upper, 1).T
            for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
                a[i, :] = a[:, i] = 0.0
            return a

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(symmetric())
        @hypothesis.example(TINY_COLUMNS_SYMMETRIC)
        def check(a):
            n = len(a)
            pairs = sym_eig(a)
            tol = 1e-12 * max(1.0, frobenius(a))
            assert np.all(np.diff(pairs.values) <= 0.0)
            assert np.max(np.abs(pairs.values - eigh_descending(a)[0])) <= tol
            assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(n))) <= 1e-12
            rebuilt = (pairs.vectors * pairs.values) @ pairs.vectors.T
            assert np.max(np.abs(rebuilt - a)) <= 10 * tol
            assert_sign_convention(pairs.vectors)

        check()

    def test_columns_far_below_the_largest_converge(self):
        a = TINY_COLUMNS_SYMMETRIC
        pairs = sym_eig(a)
        assert np.max(np.abs(pairs.values - eigh_descending(a)[0])) <= 1e-12
        assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(3))) <= 1e-12
        f = svd(TINY_COLUMNS)
        assert reconstruction_error(TINY_COLUMNS, f) <= 1e-12
        assert np.max(np.abs(f.u.T @ f.u - np.eye(3))) <= 1e-12
        assert np.max(np.abs(f.v.T @ f.v - np.eye(3))) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_float_range(self):
        # every eigenvalue is finite, but the diagonal plus the Gershgorin shift overflows
        b = np.random.default_rng(9).uniform(-1.25e307, 1.25e307, size=(12, 12))
        a = b + b.T
        diag = np.diag(a)
        shift = np.max(np.abs(a - np.diag(diag)).sum(axis=1) - diag)
        with np.errstate(over="ignore"):
            assert not np.isfinite(diag + shift).all()
        start = time.perf_counter()
        pairs = sym_eig(a)
        assert time.perf_counter() - start < 0.5
        ref = np.sort(np.linalg.eigvalsh(a / 2.0**600) * 2.0**600)[::-1]
        assert np.max(np.abs(pairs.values - ref)) <= 1e-12 * np.abs(ref).max()
        assert np.max(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(12))) <= 1e-12
        assert_sign_convention(pairs.vectors)

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-700])
    def test_power_of_two_scaling_near_the_float_range_is_exact(self, scale):
        # 2**700 puts the input past the overflow guard, which scales it back
        a = self.SEPARATED["wide spread"]
        pairs, scaled = sym_eig(a), sym_eig(scale * a)
        assert np.array_equal(scaled.values, scale * pairs.values)
        assert np.array_equal(scaled.vectors, pairs.vectors)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigenvalue_beyond_the_float_range_rejected(self):
        with pytest.raises(InvalidInputError, match="float range"):
            sym_eig(np.full((2, 2), 1.5e308))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_symmetry_test_holds_near_the_float_range(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]]) * 1e307
        with pytest.raises(InvalidInputError, match="not symmetric"):
            sym_eig(a)
        a[1, 0] = 2e307 * (1.0 + 1e-14)
        assert np.all(np.isfinite(sym_eig(a).values))

    def test_nonsymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.ones((2, 3)))


class TestCenter:
    def test_zeros(self):
        xc, mean = center(np.zeros((3, 2)))
        assert np.array_equal(xc, np.zeros((3, 2)))
        assert np.array_equal(mean, np.zeros(2))

    def test_simple_column(self):
        xc, mean = center(np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(xc[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert mean[0] == pytest.approx(2.0)

    def test_random_means_vanish(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=5.0, size=(10, 4))
        xc, mean = center(x)
        assert np.all(np.abs(xc.mean(axis=0)) <= 1e-12)
        assert np.allclose(xc + mean, x, atol=1e-12)

    def test_overflowing_column_sums_are_centered_scaled(self):
        # the column sums pass the float range; the centered values do not
        x = np.abs(np.random.default_rng(1).normal(size=(50, 3))) * 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xc, mean = center(x)
        small, small_mean = center(np.ldexp(x, -1024))
        assert np.array_equal(xc, np.ldexp(small, 1024))
        assert np.array_equal(mean, np.ldexp(small_mean, 1024))

    def test_overflowing_centered_values_name_the_scale(self):
        x = np.array([[1.7e308], [-1.7e308], [-1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match=r"scale \(1\.7e\+308\) overflows"):
                center(x)


class TestOrthogonalize:
    SIZES = (2, 5, 8, 18)

    def cases(self, n):
        rng = np.random.default_rng(n)
        q = polar_factor(rng.normal(size=(n, n)))
        ill = (
            polar_factor(rng.normal(size=(n, n)))
            @ np.diag(np.logspace(0.0, -5.0, n))
            @ polar_factor(rng.normal(size=(n, n)))
        )
        return {
            "random": rng.normal(size=(n, n)),
            "near-orthogonal": q + 1e-3 * rng.normal(size=(n, n)),
            "ill-conditioned": ill,
        }

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_polar_factor(self, n):
        for name, w in self.cases(n).items():
            got = orthogonalize(w)
            assert np.max(np.abs(got - polar_factor(w))) <= 1e-12, name
            assert np.max(np.abs(got @ got.T - np.eye(n))) <= 1e-13, name

    @pytest.mark.parametrize(
        "w",
        [
            np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5], [0.3, -1.0, 2.0]]),  # repeated row
            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # zero row
            np.zeros((3, 3)),
        ],
    )
    def test_degenerate_rows_rejected(self, w):
        with pytest.raises(DegenerateInputError):
            orthogonalize(w)

    @pytest.mark.parametrize("n", (3, 8, 18))
    def test_dependent_last_row_rejected(self, n):
        w = np.random.default_rng(n).normal(size=(n, n))
        w[-1] = w[0] + w[1]
        with pytest.raises(DegenerateInputError):
            orthogonalize(w)

    def test_scale_invariant(self):
        # scaling by a power of two is exact, so the iteration sees the same W
        w = np.random.default_rng(15).normal(size=(6, 6))
        assert np.array_equal(orthogonalize(2.0**-30 * w), orthogonalize(w))
        assert np.array_equal(orthogonalize(1e-7 * np.eye(3)), np.eye(3))

    def test_orthogonal_input_unchanged(self):
        theta = 0.3
        w = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        r = orthogonalize(w)
        assert np.allclose(r, w, atol=1e-10)

    def test_scaled_identity(self):
        r = orthogonalize(2.0 * np.eye(3))
        assert np.allclose(r, np.eye(3), atol=1e-12)

    def test_random_full_rank(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w = rng.normal(size=(4, 4))
            r = orthogonalize(w)
            assert np.allclose(r @ r.T, np.eye(4), atol=1e-10)
            # same row space: the projectors onto the row spaces agree
            pw = w.T @ np.linalg.inv(w @ w.T) @ w
            pr = r.T @ r
            assert np.allclose(pw, pr, atol=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 5))
        once = orthogonalize(w)
        twice = orthogonalize(once)
        assert np.allclose(once, twice, atol=1e-9)

    def test_rank_deficient_rejected(self):
        w = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(DegenerateInputError):
            orthogonalize(w)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            orthogonalize(np.ones((2, 3)))
