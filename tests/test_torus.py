import random
from fractions import Fraction

import pytest

from polylat import PolarizedAbelianData, q_form
from polylat.errors import TruncationOverflow
from polylat.torus import (
    ExactScalar,
    FourierForm,
    contract,
    double_contraction_forms,
    exterior_d,
    hodge_projectors_exact,
    log_connection,
    nu_form,
    omega_power,
    polarization_form,
)
from polylat.verify import random_form


@pytest.fixture
def tau_i():
    return PolarizedAbelianData.from_tau(0, 1)


@pytest.fixture
def rank4():
    return PolarizedAbelianData.product(
        PolarizedAbelianData.from_tau(0, 1),
        PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(3, 2)),
    )


def basis_vector(data, i):
    return [ExactScalar.from_rational(int(j == i)) for j in range(data.rank)]


def test_d_of_constant_is_zero(tau_i):
    assert exterior_d(FourierForm.unit(tau_i, 3)).is_zero()


def test_d_of_character(tau_i):
    chi = FourierForm.character(tau_i, 3, [1, 0])
    dchi = exterior_d(chi)
    # d chi = chi * iota * sum_i E(e1, e_i) dx^i = -iota * chi dx^2
    key = ((Fraction(1), Fraction(0)), (1,), ())
    assert set(dchi.terms) == {key}
    assert dchi.terms[key] == ExactScalar.from_rational(-1, 0, 1)


def test_nu_closed(tau_i, rank4):
    for data in (tau_i, rank4):
        assert exterior_d(nu_form(data, 4)).is_zero()


def test_connection_on_unit_is_nu(tau_i):
    assert log_connection(FourierForm.unit(tau_i, 3)) == nu_form(tau_i, 3)


def test_connection_on_nu_is_zero(tau_i):
    assert log_connection(nu_form(tau_i, 3)).is_zero()


def test_flatness_randomized(tau_i, rank4):
    rng = random.Random(99)
    for i in range(200):
        data = tau_i if i % 2 == 0 else rank4
        f = random_form(rng, data, rng.randrange(1, 5))
        assert exterior_d(exterior_d(f)).is_zero()
        assert log_connection(log_connection(f)).is_zero()


def test_rational_character_is_flat(tau_i, rank4):
    for data, lam in ((tau_i, (Fraction(1, 2), Fraction(-1, 3))), (rank4, (Fraction(1, 2), 0, Fraction(-1, 3), 2))):
        chi = FourierForm.character(data, 3, lam)
        assert not exterior_d(chi).is_zero()
        assert exterior_d(exterior_d(chi)).is_zero()
        assert not log_connection(chi).is_zero()
        assert log_connection(log_connection(chi)).is_zero()
        # a product with forms of integral characters keeps the rational one
        f = chi.wedge(nu_form(data, 3)).wedge(FourierForm.character(data, 3, (1,) * data.rank))
        assert log_connection(log_connection(f)).is_zero()


def test_int_and_fraction_character_keys_agree(tau_i):
    int_key, frac_key = ((1, 0), (1,), ()), ((Fraction(1), Fraction(0)), (1,), ())
    assert int_key == frac_key and hash(int_key) == hash(frac_key)
    chi = FourierForm.character(tau_i, 3, [1, 0])
    assert all(type(x) is int for x in next(iter(chi.terms))[0])
    assert chi == FourierForm(tau_i, 3, {((Fraction(1), Fraction(0)), (), ()): ExactScalar.one()})
    assert chi == FourierForm.character(tau_i, 3, ["1", Fraction(0)])
    d = exterior_d(chi)
    assert d.terms[frac_key] == d.terms[int_key]
    # a form built on Fraction keys accumulates onto the int ones
    mixed = d + FourierForm(tau_i, 3, {frac_key: ExactScalar.from_rational(1, 0, 1)})
    assert mixed.is_zero()
    half = FourierForm.character(tau_i, 3, [Fraction(1, 2), 0])
    assert next(iter(half.wedge(half).terms))[0] == (1, 0)
    assert all(type(x) is int for x in next(iter(half.wedge(half).terms))[0])


def test_graded_leibniz(tau_i, rank4):
    rng = random.Random(5)
    for i in range(60):
        data = tau_i if i % 2 == 0 else rank4
        g = random_form(rng, data, 4)
        # f: pure exterior form of a single degree, no symmetric value
        p = rng.randrange(0, data.rank + 1)
        exts = [tuple(sorted(rng.sample(range(data.rank), p)))]
        f = FourierForm(
            data,
            4,
            {
                ((Fraction(rng.randrange(-2, 3)),) * data.rank, exts[0], ()): ExactScalar.from_rational(
                    Fraction(rng.randrange(-3, 4), 2)
                )
            },
        )
        lhs = log_connection(f.wedge(g))
        sign = Fraction((-1) ** p)
        rhs = exterior_d(f).wedge(g) + f.wedge(log_connection(g)).scale(sign)
        assert lhs == rhs


def test_contract_examples(tau_i):
    char0 = (Fraction(0), Fraction(0))
    dx1 = FourierForm(tau_i, 2, {(char0, (0,), ()): ExactScalar.one()})
    dx12 = FourierForm(tau_i, 2, {(char0, (0, 1), ()): ExactScalar.one()})
    e1, e2 = basis_vector(tau_i, 0), basis_vector(tau_i, 1)
    assert contract(dx1, e1) == FourierForm.unit(tau_i, 2)
    assert contract(dx12, e2) == dx1.scale(Fraction(-1))
    om = polarization_form(tau_i)
    assert contract(contract(om, e1), e1).is_zero()


def test_contract_anticommutes(tau_i, rank4):
    rng = random.Random(17)
    for data in (tau_i, rank4):
        f = random_form(rng, data, 3)
        v = [ExactScalar.from_rational(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(data.rank)]
        w = [ExactScalar.from_rational(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(data.rank)]
        a = contract(contract(f, w), v)
        b = contract(contract(f, v), w).scale(Fraction(-1))
        assert a == b


def test_polarization_form_d1(tau_i):
    om = polarization_form(tau_i)
    key = ((Fraction(0), Fraction(0)), (0, 1), ())
    assert set(om.terms) == {key}
    # coefficient (1/2) iota E_12 with E_12 = -1
    assert om.terms[key] == ExactScalar.from_rational(Fraction(-1, 2), 0, 1)


def test_omega_power_overflow(tau_i, rank4):
    assert omega_power(tau_i, 2).is_zero()
    assert not omega_power(rank4, 2).is_zero()
    assert omega_power(rank4, 3).is_zero()


def test_double_contraction_vs_q_form(tau_i):
    # i_{l^{-1,0}} i_{l^{0,-1}} omega = -Q(l)/2 for d=1
    pm, pp = hodge_projectors_exact(tau_i)
    om = polarization_form(tau_i)
    for lam in ([1, 0], [0, 1], [2, -3]):
        lm = [
            sum((pm[i][j] * ExactScalar.from_rational(lam[j]) for j in range(2)), ExactScalar())
            for i in range(2)
        ]
        lp = [
            sum((pp[i][j] * ExactScalar.from_rational(lam[j]) for j in range(2)), ExactScalar())
            for i in range(2)
        ]
        val = contract(contract(om, lp), lm)
        num = list(val.numeric_terms().values())[0]
        assert abs(num - (-q_form(tau_i, lam) / 2)) < 1e-12


def test_lie_derivative_vanishes_over_point_base(tau_i, rank4):
    # L_v(omega^d) = d i_v omega^d = 0 for constant v
    for data in (tau_i, rank4):
        om_d = omega_power(data, data.d)
        for i in range(data.rank):
            assert exterior_d(contract(om_d, basis_vector(data, i))).is_zero()


def test_double_contraction_table(tau_i):
    table = double_contraction_forms(tau_i)
    assert table[(0, 0)].is_zero()
    key = ((Fraction(0), Fraction(0)), (), ())
    # i_{e1} i_{e2} omega = omega(e2, e1) = iota E_21 / 2 = iota/2
    assert table[(0, 1)].terms[key] == ExactScalar.from_rational(Fraction(1, 2), 0, 1)


def test_truncation_semantics(tau_i):
    # products beyond the truncation level are silently dropped
    f = FourierForm(
        tau_i, 1, {((Fraction(0), Fraction(0)), (), (0,)): ExactScalar.one()}
    )
    nabla = log_connection(f)
    assert all(len(w) <= 1 for (_c, _e, w) in nabla.terms)
    with pytest.raises(TruncationOverflow):
        FourierForm(tau_i, 99)
    with pytest.raises(TruncationOverflow):
        log_connection(FourierForm(tau_i, 0))


def test_exact_scalar_ring():
    a = ExactScalar.from_rational(Fraction(1, 2), Fraction(-1, 3), 1)
    b = ExactScalar.from_rational(2, 1, 0)
    assert (a + (-a)).parts == {}
    prod = a * b
    assert prod.parts[1] == (Fraction(4, 3), Fraction(-1, 6))
    import cmath

    assert abs(a.numeric() - (0.5 - 1j / 3) * 2j * cmath.pi) < 1e-15


def _fraction_scalar(parts):
    """An ExactScalar whose parts are all Fractions, bypassing normalization."""
    x = object.__new__(ExactScalar)
    x.parts = {k: (Fraction(re), Fraction(im)) for k, (re, im) in parts.items() if re or im}
    return x


def _fraction_ops(p, q):
    """+, - and * on {iota power: (re, im)} dicts, all in Fractions (keys
    in the order ExactScalar makes them, so numeric() sums in that order)."""
    add, sub, mul = {}, {}, {}
    for k in list(p) + [k for k in q if k not in p]:
        (a, b), (c, d) = p.get(k, (0, 0)), q.get(k, (0, 0))
        add[k] = (Fraction(a) + c, Fraction(b) + d)
        sub[k] = (Fraction(a) - c, Fraction(b) - d)
    for k1, (a, b) in p.items():
        for k2, (c, d) in q.items():
            r0, i0 = mul.get(k1 + k2, (Fraction(0), Fraction(0)))
            mul[k1 + k2] = (r0 + Fraction(a) * c - Fraction(b) * d, i0 + Fraction(a) * d + Fraction(b) * c)
    return [_fraction_scalar(x) for x in (add, sub, mul)]


def test_exact_scalar_int_parts_match_fractions():
    # integral parts are ints, the rest Fractions: every result equals the
    # all-Fraction one, with the same hash, repr and numeric value
    rng = random.Random(3)

    def parts():
        return {
            k: (Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3])), Fraction(rng.randrange(-4, 5), rng.choice([1, 2])))
            for k in rng.sample(range(3), rng.randrange(0, 4))
        }

    for _ in range(300):
        p, q = parts(), parts()
        x, y = ExactScalar(p), ExactScalar(q)
        for got, want in zip((x + y, x - y, x * y), _fraction_ops(p, q)):
            assert got == want and want == got
            assert hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert got.numeric() == want.numeric()
            for re, im in got.parts.values():
                for v in (re, im):
                    assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
