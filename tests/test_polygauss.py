import math

import numpy as np
import pytest

from polylat.errors import ArityMismatch, NotPositiveDefinite
from polylat.polygauss import VectorPolynomial, dual_form, gaussian_ft, linear_form_products


def quadrature_transform(P, m, t, h, p, pairing=None, n=240):
    """Independent oracle: brute tensor-grid quadrature of the defining integral."""
    r = m.shape[0]
    b = np.eye(r) if pairing is None else pairing
    L = 8.5 / math.sqrt(t * float(np.linalg.eigvalsh(m)[0]))
    xs = np.linspace(-L, L, n)
    grids = np.meshgrid(*([xs] * r), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    qv = np.einsum("ij,jk,ik->i", pts, m, pts)
    phase = 2j * math.pi * (pts @ (b @ (np.asarray(p) + np.asarray(h))))
    vals = P.evaluate_many(pts)[:, 0] * np.exp(-t * qv + phase)
    return vals.sum() * (xs[1] - xs[0]) ** r


def test_evaluate_examples():
    one = VectorPolynomial.constant(1.0, 3)
    assert one.evaluate([4.0, -1.0, 0.5])[0] == 1.0
    x = VectorPolynomial.monomial((1,), 1)
    assert x.evaluate([3.0])[0] == 3.0
    xy = VectorPolynomial.monomial((1, 1), 2)
    assert xy.evaluate([2.0, 5.0])[0] == 10.0


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        VectorPolynomial.monomial((1,), 1).evaluate([1.0, 2.0])


def test_homogeneous_flag_enforced():
    with pytest.raises(ArityMismatch):
        VectorPolynomial(1, {(0,): [1.0], (2,): [1.0]}, homogeneous=True)
    VectorPolynomial(1, {(0,): [1.0], (2,): [1.0]}, homogeneous=False)


def test_gaussian_ft_rank1_constant():
    gf = gaussian_ft(VectorPolynomial.constant(1.0, 1), [[math.pi]])
    for t, p in [(0.3, 0.0), (1.0, 0.5), (2.7, -1.2)]:
        expect = t**-0.5 * math.exp(-math.pi * p * p / t)
        assert abs(gf.evaluate([p], t)[0] - expect) < 1e-14 * max(1.0, expect)


def test_gaussian_ft_rank1_linear():
    gf = gaussian_ft(VectorPolynomial.monomial((1,), 1), [[math.pi]])
    p = 0.4
    assert abs(gf.evaluate([p], 1.0)[0] - 1j * p * math.exp(-math.pi * p * p)) < 1e-15


def test_gaussian_ft_odd_vanishes_at_origin():
    gf = gaussian_ft(VectorPolynomial.monomial((3,), 1), [[2.0]])
    assert abs(gf.poly_eval([0.0], 0.7)[0]) == 0.0


def test_dual_form_examples():
    assert abs(dual_form([[math.pi]])[0, 0] - 1 / math.pi) < 1e-15
    q = np.diag([2.0, 5.0]) * math.pi
    qd = dual_form(q)
    assert np.allclose(qd, np.diag([1 / 2.0, 1 / 5.0]) / math.pi)
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.max(np.abs(dual_form(dual_form(m)) - m)) < 1e-12


def test_dual_form_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        dual_form([[1.0, 0.0], [0.0, -1.0]])


def test_constant_poly_factor_is_constant_at_t1():
    gf = gaussian_ft(VectorPolynomial.constant(2.5, 2), np.eye(2))
    assert gf.poly_eval([0.3, 0.4], 1.0)[0] == 2.5
    assert gf.poly_degree() == 0


def test_degree_preservation_on_monomials():
    m = np.array([[1.3, 0.2], [0.2, 0.9]])
    for alpha in [(1, 0), (2, 0), (1, 1), (3, 0)]:
        gf = gaussian_ft(VectorPolynomial.monomial(alpha, 2), m)
        assert gf.poly_degree() == sum(alpha)


def test_quadrature_oracle_randomized():
    rng = np.random.default_rng(42)
    b_rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for case in range(8):
        r = 1 if case % 3 == 0 else 2
        a = rng.normal(size=(r, r))
        m = a @ a.T + 0.4 * np.eye(r)
        deg = int(rng.integers(0, 4))
        alpha = tuple(int(x) for x in rng.multinomial(deg, np.ones(r) / r))
        P = VectorPolynomial(r, {alpha: [1.0]})
        t = 0.5 + 1.5 * rng.random()
        h = rng.uniform(-0.5, 0.5, size=r)
        p = rng.uniform(-0.6, 0.6, size=r)
        pairing = None if r == 1 or case % 2 == 0 else b_rot
        gf = gaussian_ft(P, m, h=h, pairing=pairing)
        quad = quadrature_transform(P, m, t, h, p, pairing=pairing)
        closed = gf.evaluate(p, t)[0]
        scale = max(abs(closed), abs(quad), 1e-10)
        assert abs(quad - closed) / scale < 1e-8, (case, quad, closed)


def test_laurent_t_powers_recorded():
    # P(x) = x^2: S[P](w; t) = x0^2 + E[y^2] carries t^{-2} and t^{-1}
    gf = gaussian_ft(VectorPolynomial.monomial((2,), 1), [[1.0]])
    powers = {m for (_alpha, m) in gf.poly}
    assert powers == {1, 2}


def test_gauss_poly_factor_eval_many_matches_single():
    gf = gaussian_ft(VectorPolynomial.monomial((2, 1), 2), np.eye(2), h=[0.1, 0.2])
    ws = np.array([[0.3, -0.4], [1.1, 0.7]])
    many = gf.poly_eval_many(ws, 0.8)
    for i, w in enumerate(ws):
        assert abs(many[i, 0] - gf.poly_eval(w, 0.8)[0]) < 1e-14


def _reference_values(P, pts):
    """Per-monomial, per-point evaluation in Python complex arithmetic."""
    out = np.zeros((len(pts), P.target_dim), dtype=complex)
    for i, pt in enumerate(pts):
        for alpha, vec in P.coeffs.items():
            out[i] += vec * math.prod(complex(x) ** a for x, a in zip(pt, alpha))
    return out


def _random_polynomial(rng, rank, degrees, target_dim):
    coeffs = {}
    for deg in degrees:
        for _ in range(int(rng.integers(1, 6))):
            alpha = tuple(int(x) for x in rng.multinomial(deg, np.ones(rank) / rank))
            coeffs[alpha] = rng.normal(size=target_dim) + 1j * rng.normal(size=target_dim)
    return VectorPolynomial(rank, coeffs, target_dim=target_dim, homogeneous=len(set(degrees)) == 1)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_evaluator_matches_per_monomial_reference(rank):
    rng = np.random.default_rng(100 + rank)
    pts = rng.uniform(-1.5, 1.5, size=(7, rank))
    pts[3] = 0.0  # 0^0 = 1
    cases = [[deg] for deg in range(9)] + [[0, 3, 8], [1, 2, 5]]  # homogeneous, then mixed degrees
    for degrees in cases:
        for target_dim in (1, 3):
            P = _random_polynomial(rng, rank, degrees, target_dim)
            ref = _reference_values(P, pts)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(P.evaluate_many(pts) - ref)) <= 1e-13 * scale, (degrees, target_dim)
            assert np.max(np.abs(P.evaluate(pts[0]) - ref[0])) <= 1e-13 * scale
            assert P.evaluate_many(np.zeros((0, rank))).shape == (0, target_dim)
            # complex coordinates are kept, not cast to float
            z = pts[1] + 1j * pts[2]
            zref = _reference_values(P, [z])[0]
            assert np.max(np.abs(P.evaluate(z) - zref)) <= 1e-13 * max(1.0, float(np.max(np.abs(zref))))


def test_evaluator_zero_polynomial():
    P = VectorPolynomial(3, {(1, 0, 1): [0.0, 0.0]}, target_dim=2)
    assert P.is_zero()
    assert np.array_equal(P.evaluate_many(np.ones((4, 3))), np.zeros((4, 2)))
    assert np.array_equal(P.evaluate([1.0, 2.0, 3.0]), np.zeros(2))


def test_linear_form_products_match_direct_product():
    rng = np.random.default_rng(7)
    for arity, nforms in [(1, 2), (2, 3), (3, 2), (4, 6)]:
        forms = rng.normal(size=(nforms, arity)) + 1j * rng.normal(size=(nforms, arity))
        forms[0, 0] = 0.0  # a form missing one coordinate
        powers = rng.integers(0, 4, size=(5, nforms))
        powers[0] = 0  # the empty product is 1
        exps, coeffs = linear_form_products(forms, powers)
        assert len({tuple(alpha) for alpha in exps.tolist()}) == len(exps)
        for x in rng.uniform(-1.2, 1.2, size=(4, arity)):
            monos = np.prod(x[None, :] ** exps, axis=1)
            direct = np.prod((forms @ x)[None, :] ** powers, axis=1)
            assert np.max(np.abs(monos @ coeffs - direct)) <= 1e-12 * max(1.0, float(np.max(np.abs(direct))))
