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
