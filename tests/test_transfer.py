"""Transfer and constructive descent along quadratic extensions."""

import pytest
from conftest import random_nonsingular_form, seeded

from albertkit import (
    QQ,
    EtaleQuadratic,
    FiniteField,
    QuadraticForm,
    QuaternionAlgebra,
    SplitK,
    descend,
    norm_form,
    remark1_check,
    witt_decompose,
)
from albertkit.errors import AlgebraError
from albertkit.transfer import transfer

F2 = FiniteField(2)
F3 = FiniteField(3)
EXT_Q2 = EtaleQuadratic(QQ, (0, 2))
EXT_F4 = EtaleQuadratic(F2, (1, 1))
EXT_F9 = EtaleQuadratic(F3, (0, -1))


def test_transfer_examples():
    K = EXT_Q2.ring
    T = transfer(EXT_Q2, QuadraticForm.diagonal(K, [K.one()]))
    assert T.upper == ((QQ.zero(), QQ.from_int(2)), (QQ.zero(), QQ.zero()))
    T = transfer(EXT_Q2, QuadraticForm.diagonal(K, [-K.gen()]))
    assert T.upper == ((QQ.from_int(-1), QQ.zero()), (QQ.zero(), QQ.from_int(-2)))
    K4 = EXT_F4.ring
    T = transfer(EXT_F4, QuadraticForm.diagonal(K4, [K4.one()]))
    assert T.upper == ((F2.zero(), F2.zero()), (F2.zero(), F2.one()))


def test_transfer_split_rejected():
    ext = EtaleQuadratic(QQ, "split")
    with pytest.raises(SplitK):
        transfer(ext, QuadraticForm.diagonal(QQ, [1]))


def test_transfer_additivity():
    rng = seeded(23)
    K = EXT_Q2.ring
    for _ in range(25):
        f1 = random_nonsingular_form(K, 2, rng, size=2)
        f2 = random_nonsingular_form(K, 2, rng, size=2)
        lhs = transfer(EXT_Q2, f1.orthogonal_sum(f2))
        rhs = transfer(EXT_Q2, f1).orthogonal_sum(transfer(EXT_Q2, f2))
        assert lhs.upper == rhs.upper


@pytest.mark.parametrize("ext", [EXT_Q2, EXT_F4, EXT_F9])
def test_transfer_preserves_nonsingular(ext):
    rng = seeded(29)
    K = ext.ring
    for _ in range(40):
        dim = rng.choice([2, 4])
        phi = random_nonsingular_form(K, dim, rng, size=2)
        assert transfer(ext, phi).classify().nonsingular


def test_descend_hamilton_norm():
    K = EXT_Q2.ring
    Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    nq = norm_form(Q)
    res = descend(EXT_Q2, nq)
    assert res.i0 == 4
    assert res.psi.n == 4
    assert res.psi.classify().nonsingular
    assert remark1_check(EXT_Q2, nq)


def test_descend_witt_one():
    K = EXT_Q2.ring
    phi = QuadraticForm.diagonal(K, [K.one(), -K.gen()])
    res = descend(EXT_Q2, phi)
    assert res.psi.n == 1 and res.i0 == 1
    with pytest.raises(AlgebraError):
        remark1_check(EXT_Q2, phi)  # transfer is not hyperbolic here


def test_descend_anisotropic_transfer():
    # <-w, -w> over Q(sqrt2): the transfer <-1,-2,-1,-2> is negative definite
    K = EXT_Q2.ring
    w = K.gen()
    phi = QuadraticForm.diagonal(K, [-w, -w])
    res = descend(EXT_Q2, phi)
    assert res.i0 == 0 and res.psi.n == 0
    # over a finite K every 4-dimensional transfer is isotropic
    rng = seeded(31)
    K9 = EXT_F9.ring
    for _ in range(25):
        phi = random_nonsingular_form(K9, 2, rng)
        res = descend(EXT_F9, phi)
        assert res.psi.n == res.i0 >= 1


def test_descend_char2_remark2():
    K = EXT_F4.ring
    phi = QuadraticForm.binary(K, K.one(), K.gen())
    res = descend(EXT_F4, phi)
    if res.i0 % 2 == 1:
        cls = res.psi.classify()
        assert cls.nondegenerate and not cls.nonsingular
    rng = seeded(37)
    odd_seen = 0
    for _ in range(40):
        phi = random_nonsingular_form(K, 2, rng)
        res = descend(EXT_F4, phi)
        if res.i0 % 2 == 1:
            odd_seen += 1
            cls = res.psi.classify()
            assert cls.nondegenerate and not cls.nonsingular
    assert odd_seen > 0


def test_hyperbolic_part_glued():
    K = EXT_Q2.ring
    phi = QuadraticForm.diagonal(K, [1, 2]).orthogonal_sum(QuadraticForm.hyperbolic_plane(K))
    res = descend(EXT_Q2, phi)
    i0 = witt_decompose(transfer(EXT_Q2, phi)).witt_index
    assert res.psi.n == i0 and i0 >= 2
