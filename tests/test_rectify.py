"""Zig-zag rectification: even/odd restrictions, the diagonal object, the
certified composite constants, and the extraction of integer certificates
from real ones."""

import random
import re
from fractions import Fraction
from functools import partial

import pytest

from perscert import (
    BudgetExceededError,
    CategoryError,
    DeltaMorphism,
    Grade,
    InterleavingCert,
    ValidationError,
    check_interleaving,
    even_odd_restrict,
    extend_floor,
    floor_int,
    floor_roundtrip_cert,
    grade,
    integer_object,
    persist,
    rectify,
    reindex,
    rescale,
    self_interleaving,
    shift_morphism,
    three_halves_check,
    zigzag,
)
from perscert.randgen import (
    corrupt_certificate,
    interleaved_pair,
    lift_cert_to_real,
    rand_f2vec_object,
    rand_finset_object,
)
from perscert.grades import even_reindex, odd_reindex
from perscert.rectify import _block_end


def test_even_restriction_values_at_m_equals_1():
    x = rand_finset_object(random.Random(0), lo=-2, hi=3)
    ex, ox, cert = even_odd_restrict(x, 1)
    # e fixes even integers and lowers odd ones; o the other way around
    for n in range(-2, 4):
        want_e = x.evaluate(grade(n if n % 2 == 0 else n - 1))
        want_o = x.evaluate(grade(n if n % 2 == 1 else n - 1))
        assert ex.evaluate(grade(n)) == want_e
        assert ox.evaluate(grade(n)) == want_o
    assert (cert.epsilon, cert.delta) == (grade(1), grade(1))
    assert check_interleaving(cert).valid


def test_even_odd_restriction_certificate_valid_for_blocks():
    for m in (1, 2, 3):
        for seed in range(5):
            x = rand_finset_object(random.Random(seed), lo=-4, hi=4)
            ex, ox, cert = even_odd_restrict(x, m)
            assert (cert.epsilon, cert.delta) == (grade(m), grade(m))
            assert check_interleaving(cert).valid


def test_block_end_is_the_least_block_multiple_of_its_parity_at_or_above_hi():
    for m in range(1, 7):
        for hi in range(-30, 31):
            for parity in (0, 1):
                q = next(q for q in range(-(-hi // m), -(-hi // m) + 2) if q % 2 == parity)
                assert _block_end(hi - 5, hi, m, parity) == q * m


def test_reindex_with_identity_is_identity():
    x = rand_finset_object(random.Random(1), lo=-2, hi=2)
    assert reindex(x, lambda n: n) == x


def test_block_windows_are_bounded_before_sampling(monkeypatch):
    """zigzag and even_odd_restrict sample the window [lo, block end], and a
    sample may compose up to m structure maps: a window whose integers times
    the block m exceed MAX_WINDOW is refused, naming the window, the block
    and the limit, and one at the limit is sampled. ``reindex`` has no such
    limit."""
    x = integer_object("FinSet", [frozenset("a")] * 2, [{"a": "a"}], 0)
    cert = self_interleaving(x, grade(2))
    # the even block end of the window [0, 1] at m = 2 is 4: 5 integers, times 2
    monkeypatch.setattr(persist, "MAX_WINDOW", 10)
    assert zigzag(cert, 2).even_equal
    assert even_odd_restrict(x, 2)[0].grid.axes[0] == tuple(map(Fraction, range(5)))
    monkeypatch.setattr(persist, "MAX_WINDOW", 9)
    message = re.escape("rectify window [0, 4] holds 5 integers, which at block 2 is more "
                        "than the limit of 9")
    for build in (lambda: zigzag(cert, 2), lambda: even_odd_restrict(x, 2)):
        with pytest.raises(BudgetExceededError, match=message):
            build()
    assert len(reindex(x, lambda n: n, 0, 20).grid.axes[0]) == 21


def test_zigzag_of_a_self_interleaving():
    x = rand_finset_object(random.Random(2), lo=-4, hi=4)
    cert = self_interleaving(x, grade(1))
    result = zigzag(cert, 1)
    assert result.even_equal and result.odd_equal
    assert result.total_shifts == (grade(2), grade(2))
    assert check_interleaving(result.composite).valid


def test_zigzag_m1_constants_and_witnesses():
    for seed in range(8):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-4, hi=4)
        y, cert = interleaved_pair(rng, x, 1)
        result = zigzag(cert, 1)
        assert result.even_equal and result.odd_equal
        # piece shifts (1,0), (1,1), (0,1); composite exactly (2,2)
        assert (result.piece_a.epsilon, result.piece_a.delta) == (grade(1), grade(0))
        assert (result.piece_mid.epsilon, result.piece_mid.delta) == (grade(1), grade(1))
        assert (result.piece_b.epsilon, result.piece_b.delta) == (grade(0), grade(1))
        for piece in (result.piece_a, result.piece_mid, result.piece_b):
            assert check_interleaving(piece).valid
        assert result.total_shifts == (grade(2), grade(2))
        assert check_interleaving(result.composite).valid


@pytest.mark.parametrize("m", [1, 2])
def test_zigzag_pieces_meet_at_the_restrictions_of_a_and_b(m):
    """e_m^*(C) = e_m^*(A) and o_m^*(C) = o_m^*(B) on the block windows, and
    the outer pieces are built on the middle piece's objects themselves."""
    for seed in range(4):
        rng = random.Random(seed)
        x = (rand_finset_object(rng, lo=-4, hi=4, max_size=3) if seed % 2
             else rand_f2vec_object(rng, lo=-4, hi=4, max_dim=2))
        y, cert = interleaved_pair(rng, x, m)
        result = zigzag(cert, m)
        ec, oc = result.piece_mid.f.source, result.piece_mid.f.target
        lo, he, ho = int(ec.grid.axes[0][0]), int(ec.grid.axes[0][-1]), int(oc.grid.axes[0][-1])
        assert ec == reindex(x, partial(even_reindex, m=m), lo, he)
        assert oc == reindex(y, partial(odd_reindex, m=m), lo, ho)
        assert result.piece_a.f.target is ec and result.piece_b.f.source is oc


def test_zigzag_refuses_middle_objects_that_differ(monkeypatch):
    """zigzag decides e_m^*(C) = e_m^*(A) and o_m^*(C) = o_m^*(B) itself, with
    the message composition gives; a restriction of A or B that differs
    (here replaced by a reindexing that does not block) is refused."""
    rng = random.Random(5)
    x = rand_finset_object(rng, lo=-3, hi=3, max_size=3)
    y, cert = interleaved_pair(rng, x, 1)
    assert zigzag(cert, 1).even_equal
    monkeypatch.setattr(rectify, "reindex", lambda z, fn, lo, hi: reindex(z, lambda n: n, lo, hi))
    with pytest.raises(CategoryError, match="middle objects of the two certificates differ"):
        zigzag(cert, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_zigzag_general_m_composite_within_3m_minus_1(m):
    for seed in range(4):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-4, hi=4, max_size=4)
        y, cert = interleaved_pair(rng, x, m)
        result = zigzag(cert, m)
        assert result.even_equal and result.odd_equal
        assert check_interleaving(result.composite).valid
        bound = grade(3 * m - 1)
        assert result.total_shifts[0].leq(bound)
        assert result.total_shifts[1].leq(bound)


def test_zigzag_rejects_invalid_certificates():
    rng = random.Random(3)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    bad = corrupt_certificate(rng, cert)
    if bad is not cert and not check_interleaving(bad).valid:
        with pytest.raises(ValidationError):
            zigzag(bad, 1)
    # shift mismatch is also rejected
    with pytest.raises(ValidationError):
        zigzag(self_interleaving(x, grade(2)), 1)


def test_three_halves_extracts_an_integer_certificate():
    for seed in range(8):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-3, hi=3, max_size=4)
        y, cert = interleaved_pair(rng, x, 1)
        lifted = lift_cert_to_real(cert, Fraction(5, 4))
        assert check_interleaving(lifted).valid
        out = three_halves_check(lifted)
        assert (out.epsilon, out.delta) == (grade(1), grade(1))
        assert check_interleaving(out).valid


def test_three_halves_works_for_f2vec_too():
    rng = random.Random(9)
    x = rand_f2vec_object(rng, lo=-2, hi=2, max_dim=2)
    y, cert = interleaved_pair(rng, x, 1)
    lifted = lift_cert_to_real(cert, Fraction(5, 4))
    out = three_halves_check(lifted)
    assert check_interleaving(out).valid


def test_three_halves_rejects_r_at_or_above_the_threshold():
    rng = random.Random(4)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    lifted = lift_cert_to_real(cert, Fraction(3, 2))
    with pytest.raises(ValidationError):
        three_halves_check(lifted)
    with pytest.raises(ValidationError):
        three_halves_check(lift_cert_to_real(cert, Fraction(2)))


def test_three_halves_rejects_unequal_shifts_and_objects_off_the_integers():
    """r is read from the certificate's shifts, so they must be equal; and
    its objects are read as Z-indexed, so their axes must be consecutive
    integers. Both certificates below are valid interleavings."""
    rng = random.Random(7)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    lifted = lift_cert_to_real(cert, 1)
    uneven = InterleavingCert(lifted.f, shift_morphism(lifted.g, grade(2)))
    real = floor_roundtrip_cert(rescale(extend_floor(x), 2))
    for valid, message in ((uneven, "shifts must be equal"), (real, "consecutive integers")):
        assert check_interleaving(valid).valid
        with pytest.raises(ValidationError, match=message):
            three_halves_check(valid)


def closure_leg(source, target, z, raw, r):
    """A leg of three_halves_check in its Grade form: raw's component at p,
    then z's structure map from floor(p + r) to p + 1."""
    one = grade(1)

    def component(p):
        push = z.structure_map(Grade([floor_int(p.coords[0] + r)]), p + one)
        return z.category.compose(push, raw.component_at(p))

    return DeltaMorphism.from_fn(source, target, one, component)


@pytest.mark.parametrize("r", [1, Fraction(5, 4), Fraction(4, 3), Fraction(7, 5)])
def test_three_halves_legs_equal_the_closure_form(r):
    for seed in range(10):
        rng = random.Random(seed)
        x = (rand_finset_object(rng, lo=-3, hi=3, max_size=4) if seed % 2
             else rand_f2vec_object(rng, lo=-3, hi=3, max_dim=2))
        y, cert = interleaved_pair(rng, x, 1)
        lifted = lift_cert_to_real(cert, r)
        out = three_halves_check(lifted)
        assert out.f.equals(closure_leg(x, y, y, lifted.f, r))
        assert out.g.equals(closure_leg(y, x, x, lifted.g, r))
