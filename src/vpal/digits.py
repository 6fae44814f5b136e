"""The digit length L, the base-b reversal r, and decimal conversion at any size.

Base 10 goes through the decimal string; other bases peel digits off with
divmod.  decimal_str and from_decimal render and parse ints past the
interpreter's int<->str digit limit.
"""

from .errors import DomainError


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
    if type(base) is not int:  # 10.0 passes a comparison with 2 and with 10
        raise DomainError(f"base must be an int, got {base!r}")
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")


def length(n: int, base: int = 10) -> int:
    """Number of base-b digits of n, with length(0) = 0 by convention."""
    _check_base(base)
    if base == 10 and n > 0:
        return len(decimal_str(n))
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    ell = 0
    while n:
        n //= base
        ell += 1
    return ell


def reverse(n: int, base: int = 10) -> int:
    """The base-b reverse of n >= 1; trailing zeros of n vanish."""
    _check_base(base)
    if n < 1:
        raise DomainError(f"reversal is defined for n >= 1, got {n}")
    if base == 10:
        return from_decimal(decimal_str(n)[::-1])
    acc = 0
    while n:
        n, d = divmod(n, base)
        acc = acc * base + d
    return acc
