"""Alphabets, finite words, and eventually periodic points.

Words are plain tuples of alphabet indices; the empty word is ``()``.
Points are the eventually periodic sequences ``pre + per + per + ...``,
kept in a normal form so that equality of points is tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import AlphabetMismatchError, ValidationError

Word = tuple[int, ...]

EPSILON: Word = ()


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbol names; the order fixes all matrix indexings."""

    symbols: tuple[str, ...]
    _index: dict = field(default=None, compare=False, repr=False)
    _joiner: str = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise ValidationError(f"alphabet symbol {s!r} is not a nonempty string")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        object.__setattr__(self, "_joiner", "" if all(len(s) == 1 for s in self.symbols) else ".")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(range(len(self.symbols)))

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except (KeyError, TypeError):   # TypeError: an unhashable symbol, such as a list
            raise AlphabetMismatchError(f"symbol {symbol!r} not in alphabet {list(self.symbols)}") from None

    def word(self, symbols) -> Word:
        """Translate a sequence of symbol names into a word of indices."""
        return tuple(self.index(s) for s in symbols)

    def word_symbols(self, w: Word) -> tuple[str, ...]:
        """The symbol names of w's letters, checked only when one fails to index
        the symbols or is negative, so a refused word gets ``check_word``'s error."""
        try:
            parts = tuple([self.symbols[a] for a in w])
        except (IndexError, TypeError):
            parts = None
        if parts is None or (w and min(w) < 0):
            self.check_word(w)
        return parts

    def check_word(self, w: Word) -> None:
        for a in w:
            if not isinstance(a, int) or not 0 <= a < len(self.symbols):
                raise AlphabetMismatchError(f"letter index {a!r} out of range for alphabet of size {len(self.symbols)}")

    def render_word(self, w: Word) -> str:
        """Human-readable word (``"e"`` when empty); single-character symbols concatenate bare.

        >>> Alphabet(("0", "1")).render_word((1, 0)), Alphabet(("a", "bc")).render_word((1, 0))
        ('10', 'bc.a')
        """
        return self._joiner.join(self.word_symbols(w)) if w else "e"

    def words_of_length(self, k: int):
        """All length-k words in lexicographic order.

        >>> list(Alphabet(("a", "b")).words_of_length(2))
        [(0, 0), (0, 1), (1, 0), (1, 1)]
        """
        return product(range(len(self.symbols)), repeat=k)


def _primitive_root(per: Word) -> Word:
    """Shortest word whose repetition equals ``per``."""
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


@dataclass(frozen=True)
class Point:
    """Eventually periodic point ``pre + per^inf`` in normal form.

    Normal form: ``per`` is primitive and ``pre`` is minimal (its last letter
    differs from the letter the period would supply there).  Equality and
    hashing therefore agree with equality of the underlying sequences.

    >>> Point((0,), (1, 0)) == Point((), (0, 1))
    True
    """

    pre: Word
    per: Word

    def __post_init__(self):
        if not isinstance(self.pre, tuple) or not isinstance(self.per, tuple):
            raise ValidationError("pre and per must be tuples of letter indices")
        if len(self.per) < 1:
            raise ValidationError("period must be nonempty")
        per = _primitive_root(self.per)
        pre = list(self.pre)
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre.pop()
        object.__setattr__(self, "pre", tuple(pre))
        object.__setattr__(self, "per", per)

    @classmethod
    def from_symbols(cls, alphabet: Alphabet, pre_symbols, per_symbols) -> "Point":
        return cls(alphabet.word(pre_symbols), alphabet.word(per_symbols))

    def letter(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, k: int) -> Word:
        return tuple(self.letter(i) for i in range(k))

    def shift(self) -> "Point":
        """The image under the one-sided shift (drop the first letter)."""
        if self.pre:
            return Point(self.pre[1:], self.per)
        return Point((), self.per[1:] + self.per[:1])

    def shift_by(self, k: int) -> "Point":
        p = self
        for _ in range(k):
            p = p.shift()
        return p

    def prepend(self, w: Word) -> "Point":
        return Point(tuple(w) + self.pre, self.per)

    @property
    def sort_key(self):
        return (self.pre, self.per)

    def render(self, alphabet: Alphabet) -> str:
        pre = alphabet.render_word(self.pre) if self.pre else ""
        return f"{pre}({alphabet.render_word(self.per)})*"
