import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polylat import (
    PolarizedAbelianData,
    SumLattice,
    character,
    dual_lattice,
    enumerate_shell,
    hodge_split,
    q_form,
)
from polylat.lattice import cell_radius, ellipsoid_chunks, ellipsoid_radius
from polylat.errors import (
    ConventionViolation,
    NotInDualLattice,
    ShellTooLarge,
    SingularPolarization,
)


@pytest.fixture
def tau_i():
    return PolarizedAbelianData.from_tau(0, 1)


def test_dual_lattice_principal(tau_i):
    dl = dual_lattice(tau_i)
    assert dl.kappa == 1
    # principal polarization: dual equals the lattice itself
    basis = np.array([[float(x) for x in col] for col in dl.basis]).T
    assert abs(abs(np.linalg.det(basis)) - 1.0) < 1e-12
    assert np.all(basis == np.round(basis))


def test_dual_lattice_index_four():
    data = PolarizedAbelianData(1, [[0, -1], [1, 0]], [[0, -2], [2, 0]])
    assert dual_lattice(data).kappa == 4


def test_singular_polarization_rejected():
    with pytest.raises(SingularPolarization):
        PolarizedAbelianData(1, [[0, -1], [1, 0]], [[0, 0], [0, 0]])


def test_hodge_split_zero(tau_i):
    hv = hodge_split(tau_i, [0, 0])
    assert np.all(hv.minus10 == 0) and np.all(hv.zero_minus1 == 0)


def test_hodge_split_e1(tau_i):
    hv = hodge_split(tau_i, [1, 0])
    assert np.allclose(hv.minus10, [0.5, -0.5j])
    assert np.allclose(hv.zero_minus1, np.conj(hv.minus10))
    jf = tau_i.j_float()
    assert np.allclose(jf @ hv.minus10, 1j * hv.minus10)
    assert np.allclose(jf @ hv.zero_minus1, -1j * hv.zero_minus1)


def test_hodge_split_reconstruction(tau_i):
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = rng.normal(size=2)
        hv = hodge_split(tau_i, lam)
        assert np.allclose(hv.minus10 + hv.zero_minus1, lam, atol=1e-14)


def test_q_form_values(tau_i):
    assert q_form(tau_i, [0, 0]) == 0.0
    assert abs(q_form(tau_i, [1, 0]) - math.pi) < 1e-14
    assert abs(q_form(tau_i, [2, 0]) - 4 * q_form(tau_i, [1, 0])) < 1e-12


def test_q_form_is_hodge_pairing(tau_i):
    rng = np.random.default_rng(1)
    for _ in range(10):
        lam = rng.normal(size=2)
        hv = hodge_split(tau_i, lam)
        pair = 2j * math.pi * (hv.minus10 @ tau_i.e_float() @ hv.zero_minus1)
        assert abs(pair.imag) < 1e-12
        assert abs(pair.real - q_form(tau_i, lam)) < 1e-10


def test_convention_violation_detected():
    # flipped pairing breaks positivity
    with pytest.raises(ConventionViolation):
        PolarizedAbelianData(1, [[0, -1], [1, 0]], [[0, 1], [-1, 0]])


def test_character_values(tau_i):
    assert character(tau_i, [1, 0], [0, 0]) == 1
    val = character(tau_i, [1, 0], [0, 0.5])
    assert abs(val + 1) < 1e-12  # exp(2 pi i E(e1, e2)/2) = -1
    u = [0.3, 0.7]
    shifted = [1.3, 0.7]
    assert abs(character(tau_i, [1, 0], u) - character(tau_i, [1, 0], shifted)) < 1e-15


def test_character_membership(tau_i):
    with pytest.raises(NotInDualLattice):
        character(tau_i, [Fraction(1, 2), 0], [0, 0])
    # index-4 pairing admits half-integer duals
    data = PolarizedAbelianData(1, [[0, -1], [1, 0]], [[0, -2], [2, 0]])
    assert abs(abs(character(data, [Fraction(1, 2), 0], [0.1, 0.2])) - 1) < 1e-12


def test_enumerate_shell_counts(tau_i):
    sh = enumerate_shell(tau_i, math.pi * 1.0000001)
    assert len(sh) == 4
    assert sorted(map(tuple, sh.tolist())) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(enumerate_shell(tau_i, 4 * math.pi * 1.0000001)) == 12
    assert len(enumerate_shell(tau_i, 0.5)) == 0


def test_enumerate_shell_monotone(tau_i):
    small = {tuple(v) for v in enumerate_shell(tau_i, 2 * math.pi).tolist()}
    large = {tuple(v) for v in enumerate_shell(tau_i, 9 * math.pi).tolist()}
    assert small <= large


def test_enumerate_shell_complete_bruteforce():
    # a sheared rank-2 lattice and a skewed rank-4 frame (Gram condition ~5e2)
    data = PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(3, 2))
    shear = np.array([[1.0, 0.9, 0.8, 0.7], [0.0, 1.0, -0.9, 0.8], [0.0, 0.0, 0.4, 0.9], [0.0, 0.0, 0.0, 0.5]])
    skewed = SumLattice.euclidean(4, shear.T @ shear)
    for lattice, R in ((data, 25.0), (skewed, 2.0)):
        frame = lattice if isinstance(lattice, SumLattice) else SumLattice.from_abelian(lattice, "primal")
        got = enumerate_shell(lattice, R)
        # brute force over the box |m_i| <= sqrt(R (G^-1)_ii) that holds the ellipsoid
        reach = np.ceil(np.sqrt(R * np.diag(np.linalg.inv(frame.gram)))).astype(int)
        box = np.array(list(itertools.product(*(range(-b, b + 1) for b in reach))))
        q = frame.q_values(box)
        expect = box[(q > 0) & (q <= R)]  # itertools.product runs in lexicographic order
        assert len(expect) > 20
        assert {tuple(v) for v in got.tolist()} == {tuple(v) for v in expect.tolist()}
        assert got.tolist() == expect.tolist()
        # centred: the m with Q(m - c) <= R, as the shifted dual sums use them
        c = np.linspace(-0.7, 0.45, frame.rank)
        pieces = list(ellipsoid_chunks(frame.gram, R, center=c, chunk=7))
        ms = np.vstack([ms for ms, _q in pieces])
        q = np.concatenate([q for _ms, q in pieces])
        assert np.allclose(q, frame.q_values(ms - c), rtol=1e-12)
        box = np.array(list(itertools.product(*(range(math.floor(x - b), math.ceil(x + b) + 1) for x, b in zip(c, reach)))))
        expect = box[frame.q_values(box - c) <= R]
        assert len(expect) > 20
        assert ms[q <= R].tolist() == expect.tolist()


@pytest.mark.parametrize(
    "gram, R",
    [
        (SumLattice.from_abelian(PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(3, 2)), "dual").gram, 40.0),
        # rank 1 has a single (empty) prefix, whose interval must still be cut into chunks
        (np.array([[0.25]]), 400.0),
    ],
)
def test_ellipsoid_chunks_half_lattice_and_chunking(gram, R):
    full = np.vstack([ms for ms, _q in ellipsoid_chunks(gram, R)])
    pieces = list(ellipsoid_chunks(gram, R, half=True, chunk=5))
    assert all(len(q) <= 5 and len(ms) == len(q) for ms, q in pieces)
    half = np.vstack([ms for ms, _q in pieces])
    q = np.concatenate([q for _ms, q in pieces])
    assert np.allclose(q, np.einsum("ij,jk,ik->i", half, gram, half), rtol=1e-12)
    # one of each pair +-m, never the origin, in lexicographic order
    assert half.tolist() == sorted(half.tolist())
    pairs = {tuple(v) for v in half.tolist()} | {tuple(v) for v in (-half).tolist()}
    assert len(pairs) == 2 * len(half)
    assert pairs == {tuple(v) for v in full.tolist() if any(v)}
    assert [None] * len(pieces) == [ms for ms, _q in ellipsoid_chunks(gram, R, half=True, coords=False, chunk=5)]


def test_ellipsoid_radius_covers_count():
    shear = np.array([[1.0, 0.9, 0.8, 0.7], [0.0, 1.0, -0.9, 0.8], [0.0, 0.0, 0.4, 0.9], [0.0, 0.0, 0.0, 0.5]])
    for gram in (np.eye(2), np.array([[2.0, 1.9], [1.9, 2.0]]), np.diag([1.0, 4.0, 9.0, 0.5]), np.array([[3.0]]), shear.T @ shear):
        for points in (5, 100, 5000):
            R = ellipsoid_radius(gram, points)
            count = sum(int(np.sum(q <= R)) for _ms, q in ellipsoid_chunks(gram, R))
            assert count <= points
            center = np.linspace(0.5, -0.3, len(gram))
            count = sum(int(np.sum(q <= R)) for _ms, q in ellipsoid_chunks(gram, R, center=center))
            assert count <= points
    assert ellipsoid_radius(np.eye(2), 1) == 0.0
    assert cell_radius(np.eye(2)) == pytest.approx(math.sqrt(0.5))


def test_enumerate_shell_cap(tau_i):
    with pytest.raises(ShellTooLarge):
        enumerate_shell(tau_i, 1e9, cap=1000)


def test_from_period_matrix_matches_tau():
    tau = 0.5 + 1.25j
    data = PolarizedAbelianData.from_period_matrix([[1.0, tau]], [[0, -1], [1, 0]])
    ref = PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(5, 4))
    assert data.J == ref.J


def test_from_period_matrix_rejects_degenerate():
    with pytest.raises(SingularPolarization):
        PolarizedAbelianData.from_period_matrix([[1.0, 2.0]], [[0, -1], [1, 0]])


def test_product_rank4():
    data = PolarizedAbelianData.product(
        PolarizedAbelianData.from_tau(0, 1),
        PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(3, 2), e_scale=2),
    )
    assert data.d == 2
    assert dual_lattice(data).kappa == 4


def test_hodge_split_idempotent(tau_i):
    hv = hodge_split(tau_i, [2.0, -1.0])
    again = hodge_split(tau_i, np.real(hv.minus10 + hv.zero_minus1))
    assert np.allclose(hv.minus10, again.minus10, atol=1e-15)
    assert np.allclose(hv.zero_minus1, again.zero_minus1, atol=1e-15)


def test_exact_phase_data(tau_i):
    frame = SumLattice.from_abelian(tau_i, "dual")
    phase = frame.phase_data([Fraction(1, 3), Fraction(5, 6)])
    assert phase is not None
    v, den = phase
    assert den == 6
    ms = np.array([[1, 0], [-2, 3], [7, -5]])
    exact = frame.char_values_exact(ms, v, den)
    approx = frame.char_values(ms, frame.reduce_point([Fraction(1, 3), Fraction(5, 6)]))
    assert np.max(np.abs(exact - approx)) < 1e-12
    assert np.max(np.abs(np.abs(exact) - 1.0)) < 1e-15
    assert frame.phase_data([0.5, 0.5]) is None  # float input: no exact path


def test_sum_lattice_char_phases_are_periodic(tau_i):
    frame = SumLattice.from_abelian(tau_i, "dual")
    ms = np.array([[1, 0], [2, -3], [0, 5]])
    u = np.array([0.3, 0.45])
    a = frame.char_values(ms, frame.reduce_point(u))
    b = frame.char_values(ms, frame.reduce_point(u + np.array([1.0, 2.0])))
    assert np.max(np.abs(a - b)) <= 1e-12
    # exact rational input reduces exactly
    from fractions import Fraction

    c = frame.char_values(ms, frame.reduce_point([Fraction(3, 10), Fraction(9, 20)]))
    d = frame.char_values(ms, frame.reduce_point([Fraction(13, 10), Fraction(49, 20)]))
    assert np.max(np.abs(c - d)) == 0.0
