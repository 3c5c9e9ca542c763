"""Transfer and constructive descent along quadratic extensions."""

import json
from collections import Counter

import pytest
from conftest import random_nonsingular_form, seeded

import albertkit.isotropy
import albertkit.transfer
from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    QuaternionAlgebra,
    SplitK,
    descend,
    etale_quadratic,
    generate_instance,
    isotropic_spanning_set,
    norm_form,
    remark1_check,
    witt_decompose,
)
from albertkit.cli import main
from albertkit.errors import AlgebraError
from albertkit.fields import QuadraticFieldExtension
from albertkit.isotropy import isotropy
from albertkit.linalg import combine, rank
from albertkit.transfer import isotropic_plane_partner, transfer

F2 = FiniteField(2)
F3 = FiniteField(3)
EXT_Q2 = etale_quadratic(QQ, (0, 2))
EXT_Q3 = etale_quadratic(QQ, (0, 3))
EXT_F4 = etale_quadratic(F2, (1, 1))
EXT_F9 = etale_quadratic(F3, (0, -1))
EXT_QI = etale_quadratic(QQ, (0, -1))


def test_transfer_examples():
    K = EXT_Q2
    T = transfer(EXT_Q2, QuadraticForm.diagonal(K, [K.one()]))
    assert T.upper == ((QQ.zero(), QQ.from_int(2)), (QQ.zero(), QQ.zero()))
    T = transfer(EXT_Q2, QuadraticForm.diagonal(K, [-K.gen()]))
    assert T.upper == ((QQ.from_int(-1), QQ.zero()), (QQ.zero(), QQ.from_int(-2)))
    K4 = EXT_F4
    T = transfer(EXT_F4, QuadraticForm.diagonal(K4, [K4.one()]))
    assert T.upper == ((F2.zero(), F2.zero()), (F2.zero(), F2.one()))


def test_transfer_split_rejected():
    ext = etale_quadratic(QQ, "split")
    with pytest.raises(SplitK):
        transfer(ext, QuadraticForm.diagonal(QQ, [1]))


def test_transfer_additivity():
    rng = seeded(23)
    K = EXT_Q2
    for _ in range(25):
        f1 = random_nonsingular_form(K, 2, rng, size=2)
        f2 = random_nonsingular_form(K, 2, rng, size=2)
        lhs = transfer(EXT_Q2, f1.orthogonal_sum(f2))
        rhs = transfer(EXT_Q2, f1).orthogonal_sum(transfer(EXT_Q2, f2))
        assert lhs.upper == rhs.upper


@pytest.mark.parametrize("ext", [EXT_Q2, EXT_F4, EXT_F9])
def test_transfer_preserves_nonsingular(ext):
    rng = seeded(29)
    K = ext
    for _ in range(40):
        dim = rng.choice([2, 4])
        phi = random_nonsingular_form(K, dim, rng, size=2)
        assert transfer(ext, phi).classify().nonsingular


def test_descend_hamilton_norm():
    K = EXT_Q2
    Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
    nq = norm_form(Q)
    res = descend(EXT_Q2, nq)
    assert res.i0 == 4
    assert res.psi.n == 4
    assert res.psi.classify().nonsingular
    assert remark1_check(EXT_Q2, nq)


def test_descend_witt_one():
    K = EXT_Q2
    phi = QuadraticForm.diagonal(K, [K.one(), -K.gen()])
    res = descend(EXT_Q2, phi)
    assert res.psi.n == 1 and res.i0 == 1
    with pytest.raises(AlgebraError):
        remark1_check(EXT_Q2, phi)  # transfer is not hyperbolic here


def test_descend_anisotropic_transfer():
    # <-w, -w> over Q(sqrt2): the transfer <-1,-2,-1,-2> is negative definite
    K = EXT_Q2
    w = K.gen()
    phi = QuadraticForm.diagonal(K, [-w, -w])
    res = descend(EXT_Q2, phi)
    assert res.i0 == 0 and res.psi.n == 0
    # over a finite K every 4-dimensional transfer is isotropic
    rng = seeded(31)
    K9 = EXT_F9
    for _ in range(25):
        phi = random_nonsingular_form(K9, 2, rng)
        res = descend(EXT_F9, phi)
        assert res.psi.n == res.i0 >= 1


def test_descend_char2_remark2():
    K = EXT_F4
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
    K = EXT_Q2
    phi = QuadraticForm.diagonal(K, [1, 2]).orthogonal_sum(QuadraticForm.hyperbolic_plane(K))
    res = descend(EXT_Q2, phi)
    i0 = witt_decompose(transfer(EXT_Q2, phi)).witt_index
    assert res.psi.n == i0 and i0 >= 2


def _block_step_cases():
    """(ext, phi): forms as in the descent acceptance suite, and n_Q."""
    rng = seeded(41)
    for ext in (EXT_Q2, EXT_Q3, EXT_F9, EXT_F4):
        K = ext
        for _ in range(12):
            if ext.base.order is None:
                # totally positive entries, as in the descent acceptance suite
                entries = []
                while len(entries) < rng.choice([1, 2, 3]):
                    a, b = rng.randint(1, 4), rng.randint(-1, 1)
                    if QQ.coerce(a * a) > K.beta * b * b:
                        entries.append(K.from_pair(a, b))
                phi = QuadraticForm.diagonal(K, entries)
                if rng.random() < 0.5:
                    phi = phi.orthogonal_sum(QuadraticForm.hyperbolic_plane(K))
            else:
                phi = random_nonsingular_form(K, rng.choice([2, 4]), rng, size=2)
            yield ext, phi
    for family, seeds in (("quad-K-over-Q", range(8)), ("char2-finite", range(6)), ("char2-function-field", [18])):
        for seed in seeds:
            _, ext, Q = generate_instance(family, seed).build()
            yield ext, norm_form(Q)


def test_block_step_writes_W_down():
    # W, the T-complement of the hyperbolic plane (u, w v), used to be solved
    # for and searched for an isotropic vector; both stay here as the reference
    seen = Counter()
    for ext, phi in _block_step_cases():
        F = ext.base
        T = transfer(ext, phi)
        wd = witt_decompose(T)
        if wd.witt_index < 2:
            continue
        seen[ext.name] += 1
        v, w = isotropic_plane_partner(ext, phi, T, wd)
        u_push = wd.pairs[0][0]
        u = ext.unrealify_vec(u_push)
        lamv = ext.realify_vec(tuple(ext.gen() * c for c in v))
        W_ref = T.orthogonal_complement([u_push, lamv])
        verdict = isotropy(T.restrict(W_ref))
        assert verdict.is_isotropic
        ref_set = isotropic_spanning_set(T.restrict(W_ref), verdict.witness)
        assert any(phi.polar(u, ext.unrealify_vec(combine(c, W_ref, F, T.n))) for c in ref_set)
        # written down: y -> y - b_T(y, z) u on the later pairs and the kernel
        t = T.evaluate(lamv)
        z = tuple(a - t * b for a, b in zip(lamv, u_push))
        later = [y for pair in wd.pairs[1:] for y in pair] + list(wd.kernel_basis)
        Wb = [tuple(a - T.polar(y, z) * b for a, b in zip(y, u_push)) for y in later]
        assert rank(Wb, F, T.n) == len(Wb) == len(W_ref) == rank(Wb + W_ref, F, T.n)
        assert T.restrict(Wb) == T.restrict(later)
        w_push = ext.realify_vec(w)
        assert rank(Wb + [w_push], F, T.n) == len(Wb)
        assert F.is_zero(T.evaluate(w_push))
        assert F.is_zero(T.polar(u_push, w_push)) and F.is_zero(T.polar(lamv, w_push))
        mu = ext.in_base(phi.polar(u, w))
        assert mu is not None and not F.is_zero(mu)
    assert all(seen[ext.name] for ext in (EXT_Q2, EXT_Q3, EXT_F9, EXT_F4))
    assert sum(seen.values()) >= 45


def test_block_step_does_not_search(monkeypatch):
    # every Witt decomposition is computed once with the real oracle and then
    # served from memory; the block step must find W's isotropic vector with
    # isotropy switched off
    K = EXT_Q2
    nq = norm_form(QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1)))
    real = albertkit.isotropy.witt_decompose
    held = {}

    def recorded(form, **kwargs):
        if form not in held:
            held[form] = real(form, **kwargs)
        return held[form]

    monkeypatch.setattr(albertkit.transfer, "witt_decompose", recorded)
    T = transfer(EXT_Q2, nq)
    wd = recorded(T)
    expected = descend(EXT_Q2, nq)
    assert wd.witt_index == 4 and [step["round"] for step in expected.steps] == ["dim-2", "dim-2"]

    def no_search(form, **kwargs):
        raise AssertionError("isotropy searched over %s" % form.field.name)

    monkeypatch.setattr(albertkit.isotropy, "isotropy", no_search)
    v, w = isotropic_plane_partner(EXT_Q2, nq, T, wd)
    assert v == expected.steps[0]["v"] and w == expected.steps[0]["w"]
    res = descend(EXT_Q2, nq)
    assert res.psi == expected.psi and res.embedding == expected.embedding


@pytest.fixture
def over_F_only(monkeypatch):
    """Fail any isotropy call on a form over a quadratic extension."""
    real = albertkit.isotropy.isotropy

    def spy(form, **kwargs):
        if isinstance(form.field, QuadraticFieldExtension):
            raise AssertionError("isotropy called over %s" % form.field.name)
        return real(form, **kwargs)

    monkeypatch.setattr(albertkit.isotropy, "isotropy", spy)


def test_anisotropic_indefinite_forms_descend_over_F(over_F_only):
    # neither form is definite, so isotropy over K has no complete method for
    # them and its search does not end at the default height; the descent
    # decides isotropy over F only
    for ext, diag in ((EXT_Q2, [1, 1, -7]), (EXT_QI, [1, -3, 5])):
        res = descend(ext, QuadraticForm.diagonal(ext, diag))
        assert res.i0 == res.psi.n == 3
        assert [step["round"] for step in res.steps] == ["dim-2", "dim-1"]


def _pinned_rounds():
    K = EXT_Q2
    w = EXT_F9.gen()
    hyp = QuadraticForm.hyperbolic_plane(K)
    f9 = [[2 * w, 0, 0, 0], [0, w, 1 + 2 * w, 0], [0, 0, 1 + 2 * w, 0], [0, 0, 0, 2 * w]]
    # (ext, phi, rounds, block steps): the block step of <1> _|_ H gives a
    # singular block, whose radical vector splits off the hyperbolic plane;
    # the F_9 form vanishes at the transfer's first isotropic vector twice
    return [
        (EXT_Q2, QuadraticForm.diagonal(K, [1]).orthogonal_sum(hyp), ["hyperbolic-plane", "dim-1"], 1),
        (EXT_Q2, QuadraticForm.diagonal(K, [3, 1]).orthogonal_sum(hyp), ["dim-2", "hyperbolic-plane"], 1),
        (EXT_F9, QuadraticForm(EXT_F9, f9), ["hyperbolic-plane", "hyperbolic-plane"], 0),
    ]


@pytest.mark.parametrize("ext, phi, rounds, block_steps", _pinned_rounds())
def test_descent_rounds(ext, phi, rounds, block_steps, over_F_only, monkeypatch):
    real = albertkit.transfer.isotropic_plane_partner
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(albertkit.transfer, "isotropic_plane_partner", counted)
    res = descend(ext, phi)
    assert [step["round"] for step in res.steps] == rounds
    assert len(calls) == block_steps
    assert res.i0 == res.psi.n == witt_decompose(transfer(ext, phi)).witt_index
    first_u = ext.unrealify_vec(witt_decompose(transfer(ext, phi)).pairs[0][0])
    assert ext.is_zero(phi.evaluate(first_u)) == (block_steps == 0)


def test_cli_descends_an_anisotropic_indefinite_form(tmp_path, capsys, over_F_only):
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"base": "Q", "ext": "x^2-2"}))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"diag": [1, 1, -7]}))
    assert main(["descend", "--ext", str(ext), "--form", str(form), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["i0"] == 3
