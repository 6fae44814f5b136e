"""Base-b digit decomposition, the length function L, and digit reversal.

Digits are stored least-significant first so that index i lines up with the
coefficient of base**i.  Renderings for humans are most-significant first.
"""

from dataclasses import dataclass

from .errors import DigitOutOfRange, DomainError, IndexOutOfRange


# Decimal digits per piece when an int is too long for one str()/int()
# conversion under the interpreter's int<->str digit limit.
_PIECE = 1000
_PIECE_MOD = 10**_PIECE


def decimal_str(n: int) -> str:
    """Full decimal rendering of n at any size.

    str() is tried first; only an int past the interpreter's conversion
    limit is rendered piece by piece.
    """
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _PIECE_MOD:
        n, low = divmod(n, _PIECE_MOD)
        pieces.append(str(low).zfill(_PIECE))
    pieces.append(str(n))
    return sign + "".join(reversed(pieces))


def from_decimal(s: str) -> int:
    """int(s) for a decimal string of any length; inverse of decimal_str."""
    try:
        return int(s)
    except ValueError:
        pass
    sign, digits = (-1, s[1:]) if s[:1] == "-" else (1, s)
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {s[:20]!r}...")
    head = len(digits) % _PIECE or _PIECE
    acc = int(digits[:head])
    for i in range(head, len(digits), _PIECE):
        acc = acc * _PIECE_MOD + int(digits[i : i + _PIECE])
    return sign * acc


def _check_base(base: int) -> None:
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")


@dataclass(frozen=True)
class DigitVector:
    """A nonnegative integer as a digit sequence in some base.

    ``digits`` is least-significant first; the most-significant digit is
    nonzero unless the vector represents 0 (empty sequence).
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        _check_base(self.base)
        for d in self.digits:
            if not 0 <= d < self.base:
                raise DigitOutOfRange(f"digit {d} out of range for base {self.base}")
        if self.digits and self.digits[-1] == 0:
            raise DomainError("most-significant digit must be nonzero")

    def value(self) -> int:
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.base + d
        return acc

    def __len__(self) -> int:
        return len(self.digits)


def _check_digit_input(n: int, base: int) -> None:
    _check_base(base)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")


def _digits(n: int, base: int) -> list[int]:
    """Digits of n, least-significant first; divmod makes each fit the base."""
    _check_digit_input(n, base)
    ds = []
    while n:
        n, d = divmod(n, base)
        ds.append(d)
    return ds


def to_digits(n: int, base: int = 10) -> DigitVector:
    """Canonical digit vector of n, least-significant first; 0 -> empty."""
    return DigitVector(base, tuple(_digits(n, base)))


def from_digits(digits, base: int = 10) -> int:
    """Value of a least-significant-first digit sequence.

    Accepts a DigitVector (its own base wins) or any digit iterable; high
    zeros in raw input are accepted and normalized away by the evaluation.
    """
    if isinstance(digits, DigitVector):
        return digits.value()
    _check_base(base)
    acc = 0
    for d in reversed(tuple(digits)):
        if not 0 <= d < base:
            raise DigitOutOfRange(f"digit {d} out of range for base {base}")
        acc = acc * base + d
    return acc


def length(n: int, base: int = 10) -> int:
    """Number of base-b digits of n, with length(0) = 0 by convention."""
    if base == 10 and n > 0:
        return len(decimal_str(n))
    _check_digit_input(n, base)
    ell = 0
    while n:
        n //= base
        ell += 1
    return ell


def digit(n: int, i: int, base: int = 10) -> int:
    """The coefficient of base**i in n."""
    if i < 0:
        raise DomainError(f"digit index must be nonnegative, got {i}")
    ell = length(n, base)
    if i >= ell:
        raise IndexOutOfRange(f"index {i} >= length {ell} of {n} in base {base}")
    return n // base**i % base


def reverse(n: int, base: int = 10) -> int:
    """The base-b reverse of n >= 1; trailing zeros of n vanish."""
    _check_base(base)
    if n < 1:
        raise DomainError(f"reversal is defined for n >= 1, got {n}")
    if base == 10:
        return from_decimal(decimal_str(n)[::-1])
    acc = 0
    for d in _digits(n, base):
        acc = acc * base + d
    return acc
