import numpy as np
import pytest

from cansys.linalg import (
    SingularMatrixError,
    ascomplex,
    fro,
    hermitian_report,
    solve,
)


def test_ascomplex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ascomplex([1.0, 2.0])
    with pytest.raises(ValueError):
        ascomplex([[1.0, np.nan]])
    with pytest.raises(ValueError):
        ascomplex([[1.0, 2.0]], square=True)


def test_solve_identity_and_self():
    b = np.array([[1.0, 2j], [3.0, 4.0]])
    x, cond = solve(np.eye(2), b)
    assert np.allclose(x, b)
    assert cond == pytest.approx(1.0)
    x, _ = solve(b, b)
    assert np.allclose(x, np.eye(2), atol=1e-14)


def test_solve_constructed_rhs_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a += 4.0 * np.eye(4)  # keep it well-conditioned
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        got, cond = solve(a, a @ x)
        assert fro(got - x) < 1e-12
        assert fro(a @ got - a @ x) < cond * 1e-14 * max(1.0, fro(a @ x))


def test_solve_singular_raises_with_estimate():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(SingularMatrixError) as excinfo:
        solve(a, np.eye(2))
    assert excinfo.value.cond_estimate > 1e12


def test_hermitian_report_signature_matrix():
    rep = hermitian_report(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.defect == 0.0
    assert rep.min_eig == pytest.approx(-1.0, abs=1e-14)
    assert not rep.is_psd


def test_hermitian_report_rank_one_gram():
    beta = np.array([[1.0, 1j]])
    rep = hermitian_report(beta.conj().T @ beta)
    assert rep.defect < 1e-15
    assert rep.min_eig == pytest.approx(0.0, abs=1e-14)
    assert rep.is_psd
    eigs = np.linalg.eigvalsh(beta.conj().T @ beta)
    assert np.allclose(sorted(eigs), [0.0, 2.0], atol=1e-14)


def test_hermitian_report_anti_hermitian():
    rep = hermitian_report(1j * np.eye(2))
    assert rep.defect == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)


def test_hermitian_defect_unitary_invariance():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    d1 = hermitian_report(m).defect
    d2 = hermitian_report(q @ m @ q.conj().T).defect
    assert abs(d1 - d2) < 1e-12
