import random

import pytest

from pseudobell.grassmann import (
    MAX_SITES,
    GrassmannElement,
    format_complex,
    normalize_word,
    theta,
    theta_bar,
)

EL = GrassmannElement


def test_normalize_word_swap_picks_up_sign():
    assert normalize_word([theta(2), theta(1)]) == (-1, 0b11)
    assert normalize_word([theta(1), theta(2)]) == (1, 0b11)


def test_normalize_word_repeat_is_zero():
    assert normalize_word([theta(1), theta(1)]) is None


def test_normalize_word_empty_is_unity():
    assert normalize_word([]) == (1, 0)


def test_generator_order_plain_before_conjugate():
    assert theta(1) < theta(2) < theta_bar(1) < theta_bar(2)


def test_multiply_canonical():
    assert EL.word(theta(1)) * EL.word(theta(2)) == EL.word(theta(1), theta(2))


def test_multiply_anticommutes():
    assert EL.word(theta(2)) * EL.word(theta(1)) == -EL.word(theta(1), theta(2))


def test_multiply_exponential_square():
    # (1 + th1*th2)^2 = 1 + 2 th1*th2, the quartic term vanishes
    f = 1 + EL.word(theta(1), theta(2))
    assert f * f == 1 + 2 * EL.word(theta(1), theta(2))


def test_conjugate_single_generator():
    assert EL.word(theta(1)).conjugate() == EL.word(theta_bar(1))


def test_conjugate_reverses_word():
    # (th1 th2)^dag = thb2 thb1 = -thb1 thb2
    assert EL.word(theta(1), theta(2)).conjugate() == -EL.word(theta_bar(1), theta_bar(2))


def test_conjugate_scalar():
    c = 2 + 3j
    assert EL.scalar(c).conjugate() == EL.scalar(c.conjugate())


def test_berezin_basic_rules():
    assert EL.word(theta(1)).berezin(theta(1)) == 1
    assert EL.one().berezin(theta(1)) == EL.zero()
    assert EL.word(theta_bar(1)).berezin(theta_bar(1)) == 1


def test_berezin_strips_with_sign():
    # int dth2 (th1 th2) = -th1
    f = EL.word(theta(1), theta(2))
    assert f.berezin(theta(2)) == -EL.word(theta(1))


def test_integrate_rightmost_first():
    t1, t2, t3 = theta(1), theta(2), theta(3)
    assert EL.word(t3, t2, t1).integrate([t1, t2, t3]) == 1
    assert EL.word(t1, t2).integrate([t1, t2]) == EL.scalar(-1)
    assert EL.word(t2).integrate([t1]) == EL.zero()


def test_coefficient_respects_word_order():
    f = EL.word(theta(1), theta(2), coeff=3)
    assert f.terms == {0b11: 3}   # 3 on the canonical θ1·θ2 and nothing on θ3
    assert f == EL.word(theta(2), theta(1), coeff=-3)


def test_str_rendering():
    f = 1 - EL.word(theta(1), theta(2)) + EL.word(theta_bar(1), coeff=2j)
    assert str(f) == "1 + 2i·θ̄1 - θ1·θ2"
    assert str(EL.zero()) == "0"
    assert str(-EL.word(theta(1))) == "-θ1"


def test_format_complex():
    assert format_complex(1 + 0j) == "1"
    assert format_complex(-2 + 0j) == "-2"
    assert format_complex(1j) == "i"
    assert format_complex(-1j) == "-i"
    assert format_complex(2.5j) == "2.5i"
    assert format_complex(1 + 2j) == "(1+2i)"
    assert format_complex(-1 - 1j) == "(-1-i)"


def _generators(n_sites):
    gens = [theta(i) for i in range(1, n_sites + 1)]
    gens += [theta_bar(i) for i in range(1, n_sites + 1)]
    return gens


def _random_element(rng, gens, max_terms=5, exact=False):
    out = EL.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(len(gens) + 1)
        word = rng.sample(gens, k)
        if exact:
            # Gaussian integers keep coefficient arithmetic exact, so the
            # algebra laws can be asserted with == rather than a tolerance.
            coeff = complex(rng.randrange(-4, 5), rng.randrange(-4, 5))
        else:
            coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        out = out + EL.word(*word, coeff=coeff)
    return out


def test_anticommutativity_exhaustive():
    gens = _generators(4)
    for g in gens:
        for h in gens:
            gh = EL.word(g) * EL.word(h)
            hg = EL.word(h) * EL.word(g)
            if g == h:
                assert gh == EL.zero()
            else:
                assert gh == -hg


def test_nilpotency_all_generators():
    for g in _generators(4):
        assert EL.word(g) * EL.word(g) == EL.zero()


@pytest.mark.parametrize("seed", range(4))
def test_associativity_and_distributivity_randomized(seed):
    rng = random.Random(1000 + seed)
    gens = _generators(4)
    for _ in range(300):
        a = _random_element(rng, gens, exact=True)
        b = _random_element(rng, gens, exact=True)
        c = _random_element(rng, gens, exact=True)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_double_berezin_integral_vanishes():
    rng = random.Random(7)
    gens = _generators(4)
    for _ in range(300):
        f = _random_element(rng, gens)
        g = rng.choice(gens)
        assert f.berezin(g).berezin(g) == EL.zero()


def test_berezin_linearity():
    rng = random.Random(11)
    gens = _generators(4)
    for _ in range(300):
        f = _random_element(rng, gens)
        h = _random_element(rng, gens)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = rng.choice(gens)
        assert (a * f + b * h).berezin(g) == a * f.berezin(g) + b * h.berezin(g)


def test_conjugation_is_involution():
    rng = random.Random(13)
    gens = _generators(4)
    for _ in range(300):
        f = _random_element(rng, gens)
        assert f.conjugate().conjugate() == f


def _word_conjugate(f):
    """Conjugation by its definition: reverse each word, swap theta <->
    thetabar, re-sort with normalize_word and conjugate the coefficient."""
    gens = _generators(MAX_SITES)
    out = EL.zero()
    for mask, c in f.terms.items():
        word = [g for g in gens if mask >> g.code & 1]
        out = out + EL.word(*(g.conjugated() for g in reversed(word)), coeff=c.conjugate())
    return out


def test_conjugate_on_the_mask_equals_the_word_based_reference():
    rng = random.Random(17)
    top = [theta(MAX_SITES), theta_bar(MAX_SITES)]
    for _ in range(500):
        gens = rng.sample(_generators(MAX_SITES), 6) + top
        f = _random_element(rng, gens, max_terms=6)
        assert f.conjugate() == _word_conjugate(f)


def test_scalar_element_hashes_like_its_value():
    # equal objects must hash equal, or set and dict lookups miss
    assert EL.scalar(1) == 1
    assert hash(EL.scalar(1)) == hash(1)
    assert 1 in {EL.scalar(1)}
    assert EL.scalar(2 + 3j) in {2 + 3j}
    assert 0 in {EL.zero()}
    assert len({EL.one(), EL.scalar(1.0), 1}) == 1
