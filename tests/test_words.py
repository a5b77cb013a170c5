import random

import pytest

from shiftk import Alphabet, Point, ValidationError
from shiftk.errors import AlphabetMismatchError
from shiftk.words import prepend_normal_form


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        Alphabet(())
    with pytest.raises(ValidationError):
        Alphabet(("a", "a"))
    ab = Alphabet(("x", "y"))
    assert ab.index("y") == 1
    with pytest.raises(AlphabetMismatchError):
        ab.index("z")


def test_words_of_length_order():
    ab = Alphabet(("0", "1"))
    assert list(ab.words_of_length(0)) == [()]
    assert list(ab.words_of_length(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_point_normal_form():
    # period must be primitive
    assert Point((), (0, 1, 0, 1)) == Point((), (0, 1))
    # trailing preperiod letters matching the period are absorbed
    assert Point((0,), (1, 0)) == Point((), (0, 1))
    assert Point((1, 0, 0), (0,)) == Point((1,), (0,))
    with pytest.raises(ValidationError):
        Point((), ())


def test_point_shift_and_prepend():
    x = Point((1,), (0,))           # 1 0 0 0 ...
    assert x.shift() == Point((), (0,))
    assert Point((), (0, 1)).shift() == Point((), (1, 0))
    assert x.prepend((1,)) == Point((1, 1), (0,))
    assert x.prefix(3) == (1, 0, 0)
    assert x.letter(0) == 1 and x.letter(5) == 0


def test_point_equality_is_sequence_equality():
    rng = random.Random(7)
    for _ in range(200):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        x = Point(pre, per)
        # pump the period and push letters from the period into the preperiod
        pumped = Point(pre, per * rng.randint(1, 3))
        rolled = Point(pre + per[:1], per[1:] + per[:1])
        assert x == pumped
        assert x == rolled
        assert x.prefix(8) == pumped.prefix(8) == rolled.prefix(8)


def test_prepend_normal_form_is_the_normal_form_of_the_prepended_sequence():
    # checked against the letters and the normal-form conditions, not against Point
    rng = random.Random(11)
    for _ in range(300):
        x = Point(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
                  tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3))))
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        pre, per = prepend_normal_form(w, x.pre, x.per)
        letters = w + x.prefix(12)
        assert tuple((pre + per * 20)[:len(letters)]) == letters, (w, x)
        assert not pre or pre[-1] != per[-1]
        # a rotation of x's primitive period is primitive
        assert per in {x.per[k:] + x.per[:k] for k in range(len(x.per))}
        assert Point(w + x.pre, x.per) == x.prepend(w) == Point(pre, per)


def test_prepend_normal_form_folds_a_long_run_in_linear_time():
    # a point parsed with 50k letters of its period in front normalises in one pass
    pre = (0, 1) * 25_000 + (0,)
    assert prepend_normal_form(pre, (), (1, 0)) == ((), (0, 1))
    assert prepend_normal_form((0,) + pre, (), (1, 0)) == ((0,), (0, 1))
    assert Point((0,) * 50_000, (0,)) == Point((), (0,))


def test_render():
    ab = Alphabet(("0", "1"))
    assert Point((1,), (0,)).render(ab) == "1(0)*"
    assert Point((), (0, 1)).render(ab) == "(01)*"


@pytest.mark.parametrize("symbols", [("0", "1"), ("a", "bc")])
@pytest.mark.parametrize("letter", [-1, 2, 1.0, "1", None])
def test_render_word_refuses_letters_outside_the_alphabet(symbols, letter):
    ab = Alphabet(symbols)
    with pytest.raises(AlphabetMismatchError, match="out of range for alphabet of size 2"):
        ab.render_word((0, letter))
    with pytest.raises(AlphabetMismatchError):
        ab.render_word((letter,))
    assert ab.render_word(()) == "e"
