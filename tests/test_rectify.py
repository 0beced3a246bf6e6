"""Zig-zag rectification: even/odd restrictions, the diagonal object, the
certified composite constants, and the extraction of integer certificates
from real ones."""

import random
import re
from fractions import Fraction

import pytest

from perscert import (
    BudgetExceededError,
    DeltaMorphism,
    Grade,
    ValidationError,
    check_interleaving,
    even_odd_restrict,
    floor_int,
    grade,
    integer_object,
    persist,
    reindex,
    self_interleaving,
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
    assert zigzag(x, x, cert, 2).even_equal
    assert even_odd_restrict(x, 2)[0].grid.axes[0] == tuple(map(Fraction, range(5)))
    monkeypatch.setattr(persist, "MAX_WINDOW", 9)
    message = re.escape("rectify window [0, 4] holds 5 integers, which at block 2 is more "
                        "than the limit of 9")
    for build in (lambda: zigzag(x, x, cert, 2), lambda: even_odd_restrict(x, 2)):
        with pytest.raises(BudgetExceededError, match=message):
            build()
    assert len(reindex(x, lambda n: n, 0, 20).grid.axes[0]) == 21


def test_zigzag_of_a_self_interleaving():
    x = rand_finset_object(random.Random(2), lo=-4, hi=4)
    cert = self_interleaving(x, grade(1))
    result = zigzag(x, x, cert, 1)
    assert result.even_equal and result.odd_equal
    assert result.total_shifts == (grade(2), grade(2))
    assert check_interleaving(result.composite).valid


def test_zigzag_m1_constants_and_witnesses():
    for seed in range(8):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-4, hi=4)
        y, cert = interleaved_pair(rng, x, 1)
        result = zigzag(x, y, cert, 1)
        assert result.even_equal and result.odd_equal
        # piece shifts (1,0), (1,1), (0,1); composite exactly (2,2)
        assert (result.piece_a.epsilon, result.piece_a.delta) == (grade(1), grade(0))
        assert (result.piece_mid.epsilon, result.piece_mid.delta) == (grade(1), grade(1))
        assert (result.piece_b.epsilon, result.piece_b.delta) == (grade(0), grade(1))
        for piece in (result.piece_a, result.piece_mid, result.piece_b):
            assert check_interleaving(piece).valid
        assert result.total_shifts == (grade(2), grade(2))
        assert check_interleaving(result.composite).valid


@pytest.mark.parametrize("m", [2, 3])
def test_zigzag_general_m_composite_within_3m_minus_1(m):
    for seed in range(4):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-4, hi=4, max_size=4)
        y, cert = interleaved_pair(rng, x, m)
        result = zigzag(x, y, cert, m)
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
            zigzag(x, y, bad, 1)
    # shift mismatch is also rejected
    with pytest.raises(ValidationError):
        zigzag(x, x, self_interleaving(x, grade(2)), 1)


def test_three_halves_extracts_an_integer_certificate():
    for seed in range(8):
        rng = random.Random(seed)
        x = rand_finset_object(rng, lo=-3, hi=3, max_size=4)
        y, cert = interleaved_pair(rng, x, 1)
        lifted = lift_cert_to_real(x, y, cert, Fraction(5, 4))
        assert check_interleaving(lifted).valid
        out = three_halves_check(x, y, Fraction(5, 4), lifted)
        assert (out.epsilon, out.delta) == (grade(1), grade(1))
        assert check_interleaving(out).valid


def test_three_halves_works_for_f2vec_too():
    rng = random.Random(9)
    x = rand_f2vec_object(rng, lo=-2, hi=2, max_dim=2)
    y, cert = interleaved_pair(rng, x, 1)
    lifted = lift_cert_to_real(x, y, cert, Fraction(5, 4))
    out = three_halves_check(x, y, Fraction(5, 4), lifted)
    assert check_interleaving(out).valid


def test_three_halves_rejects_r_at_or_above_the_threshold():
    rng = random.Random(4)
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    lifted = lift_cert_to_real(x, y, cert, Fraction(3, 2))
    with pytest.raises(ValidationError):
        three_halves_check(x, y, Fraction(3, 2), lifted)
    with pytest.raises(ValidationError):
        three_halves_check(x, y, Fraction(2), lifted)


def test_three_halves_rejects_a_certificate_that_does_not_match_its_arguments():
    rng = random.Random(7)  # a seed whose x and y differ
    x = rand_finset_object(rng, lo=-2, hi=2)
    y, cert = interleaved_pair(rng, x, 1)
    with pytest.raises(ValidationError, match="shifts must equal r"):
        three_halves_check(x, y, 0, lift_cert_to_real(x, y, cert, 1))
    assert x != y
    with pytest.raises(ValidationError, match="floor-extensions"):
        three_halves_check(y, x, 1, lift_cert_to_real(x, y, cert, 1))
    z = rand_finset_object(random.Random(6), lo=-3, hi=3)
    w, other = interleaved_pair(random.Random(7), z, 1)
    with pytest.raises(ValidationError, match="floor-extensions"):
        three_halves_check(x, y, 1, lift_cert_to_real(z, w, other, 1))


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
        lifted = lift_cert_to_real(x, y, cert, r)
        out = three_halves_check(x, y, r, lifted)
        assert out.f.equals(closure_leg(x, y, y, lifted.f, r))
        assert out.g.equals(closure_leg(y, x, x, lifted.g, r))
