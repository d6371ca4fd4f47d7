"""Monotypic one-sided infinite binary strings and their index schemes.

A monotypic string is all zeros followed by all ones.  Left-indexed
strings (orientation L) are read position 1, 2, 3, ... from the left;
right-indexed strings (orientation R) are read from the right.  Exactly
one of the two letter counts is the infinite count OMEGA_MANY, so each
string is one of four shapes:

  I    all zeros, left-indexed          000...
  II   u zeros then ones forever        0^u 111...
  III  zeros forever then v ones        ...000 1^v
  IV   all ones, right-indexed          ...111

A SpecifiedString is the (shape, index) recipe producing a string of
that family: index i in family II realizes 0^(i-1) 111..., and index i
in family III realizes ...000 1^(i-1).  Families I and IV ignore the
index (every recipe yields the same string), so classify() reports
their index as indeterminate.

finite_approx gives the stage-n word of a recipe; limit_check decides
bitwise convergence of those words to the realized string on a window.
opp swaps letters and reading direction; lr keeps the letters but
re-reads the recipe from the other end.
"""

from enum import Enum
from typing import NamedTuple

from .errors import BadIndex, BadLiteral
from .words import check_range

# finite_approx writes its n - 1 letters in about 1 ms at 1000000 (2-vCPU
# Xeon, Python 3.11), and approx_bit takes the same stages; limit_check reads
# one stage, no deeper than its depth bound, which stays a part of the
# command's contract
MAX_APPROX_STAGE = 1_000_000
MAX_STABILITY_DEPTH = 1_000_000
# realize writes index - 1 letters, 1 MB here; approx and limit take no larger index
MAX_RECIPE_INDEX = MAX_APPROX_STAGE


class _OmegaMany:
    """Distinguished infinite count. Never compare it with integers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA_MANY"


OMEGA_MANY = _OmegaMany()


def is_omega(count) -> bool:
    return count is OMEGA_MANY


class Orientation(Enum):
    L = "L"
    R = "R"


class _Monotypic(NamedTuple):
    orientation: Orientation
    zeros: object  # int >= 0 or OMEGA_MANY
    ones: object


class MonotypicString(_Monotypic):
    __slots__ = ()

    def __new__(cls, orientation: Orientation, zeros: object, ones: object) -> "MonotypicString":
        if is_omega(zeros) == is_omega(ones):
            raise ValueError("exactly one letter count must be infinite")
        for c in (zeros, ones):
            if not is_omega(c) and (not isinstance(c, int) or c < 0):
                raise ValueError(f"bad count {c!r}")
        if orientation is Orientation.L:
            if is_omega(zeros) and ones != 0:
                raise ValueError("a left-indexed string with infinite zeros has no ones")
        else:
            if is_omega(ones) and zeros != 0:
                raise ValueError("a right-indexed string with infinite ones has no zeros")
        return super().__new__(cls, orientation, zeros, ones)

    def __str__(self) -> str:
        return render_literal(self)


# The four extreme strings, one per family.
ALL_ZEROS_L = MonotypicString(Orientation.L, OMEGA_MANY, 0)    # 000...
ALL_ONES_L = MonotypicString(Orientation.L, 0, OMEGA_MANY)     # 111...
ALL_ZEROS_R = MonotypicString(Orientation.R, OMEGA_MANY, 0)    # ...000
ALL_ONES_R = MonotypicString(Orientation.R, 0, OMEGA_MANY)     # ...111


class SpecKind(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class _Specified(NamedTuple):
    kind: SpecKind
    index: int


class SpecifiedString(_Specified):
    __slots__ = ()

    def __new__(cls, kind: SpecKind, index: int) -> "SpecifiedString":
        if index < 1:
            raise BadIndex(f"index must be >= 1, got {index}")
        return super().__new__(cls, kind, index)


class StringClass(NamedTuple):
    family: SpecKind
    index: int | None  # None when the family makes the index indeterminate


class PairString(NamedTuple):
    left: MonotypicString
    right: MonotypicString

    def __str__(self) -> str:
        return f"({render_literal(self.left)}, {render_literal(self.right)})"


def realize(s: SpecifiedString) -> MonotypicString:
    """The infinite string a recipe converges to."""
    if s.kind is SpecKind.I:
        return ALL_ZEROS_L
    if s.kind is SpecKind.II:
        return MonotypicString(Orientation.L, s.index - 1, OMEGA_MANY)
    if s.kind is SpecKind.III:
        return MonotypicString(Orientation.R, OMEGA_MANY, s.index - 1)
    return ALL_ONES_R


def classify(x: MonotypicString) -> StringClass:
    """Which family realizes x, and at which index if determined."""
    if x.orientation is Orientation.L:
        if is_omega(x.zeros):
            return StringClass(SpecKind.I, None)
        return StringClass(SpecKind.II, x.zeros + 1)
    if is_omega(x.ones):
        return StringClass(SpecKind.IV, None)
    return StringClass(SpecKind.III, x.ones + 1)


# the families and orientation L as module names: each SpecKind.X lookup costs
# about 0.2 µs, half of what the rest of approx_bit costs
_I, _II, _III, _IV = SpecKind
_L = Orientation.L


def _zeros(kind: SpecKind, i: int, n: int) -> int:
    """The zeros of the stage-n word of recipe i: n - i in families I and III, i - 1 in II and IV."""
    return n - i if kind is _I or kind is _III else i - 1


def approx_bit(kind: SpecKind, i: int, n: int, j: int) -> int:
    """Bit at native position j (1-based) of the stage-n word of recipe i; n <= MAX_APPROX_STAGE."""
    _check_stage(i, n)
    if not 1 <= j <= n - 1:
        raise BadIndex(f"position {j} outside stage {n}")
    # native positions of families III and IV count from the right
    left = j if kind is _I or kind is _II else n - j
    return int(left > _zeros(kind, i, n))


def finite_approx(kind: SpecKind, i: int, n: int) -> str:
    """Stage-n word (length n-1) of recipe i, written left to right; n <= MAX_APPROX_STAGE."""
    _check_stage(i, n)
    z = _zeros(kind, i, n)
    return "0" * z + "1" * (n - 1 - z)


def _check_stage(i: int, n: int) -> None:
    check_range("stage", n, 2, MAX_APPROX_STAGE)
    if not 1 <= i <= n:
        raise BadIndex(f"recipe index {i} outside stage {n}")


def bit_at(x: MonotypicString, j: int) -> int:
    """Bit at native position j >= 1 of an infinite string."""
    if j < 1:
        raise BadIndex(f"position must be >= 1, got {j}")
    if x.orientation is Orientation.L:
        return 0 if is_omega(x.zeros) or j <= x.zeros else 1
    return 1 if is_omega(x.ones) or j <= x.ones else 0


def limit_check(kind: SpecKind, i: int, j: int, depth: int) -> bool:
    """Does bit j stabilize to the realized string's bit across stages?

    It asks of every stage n with j + i <= n <= depth <= MAX_STABILITY_DEPTH,
    and stage j + i decides it: for n >= j + i, bit j of stage n, [left > zeros]
    in `approx_bit`, is the realized string's bit in every family, so every
    such stage has the bit of stage j + i.  I: [j > n - i] = 0 (000...);
    II: [j > i - 1] = [j >= i] (0^(i-1) 11...); III: [n - j > n - i] = [j < i]
    (...00 1^(i-1), read from the right); IV: [n - j > i - 1] = 1 (...111).
    """
    if i < 1 or j < 1:
        raise BadIndex("recipe index and position must be >= 1")
    check_range("depth", depth, j + i, MAX_STABILITY_DEPTH)
    return approx_bit(kind, i, j + i, j) == bit_at(realize(SpecifiedString(kind, i)), j)


def opp(x: MonotypicString) -> MonotypicString:
    """Swap the letters and the reading direction."""
    flipped = Orientation.R if x.orientation is Orientation.L else Orientation.L
    return MonotypicString(flipped, x.ones, x.zeros)


def opp_pair(p: PairString) -> PairString:
    """Pair dual: swap components and dualize each."""
    return PairString(opp(p.right), opp(p.left))


_LR_TOGGLE = {SpecKind.I: SpecKind.III, SpecKind.III: SpecKind.I, SpecKind.II: SpecKind.IV, SpecKind.IV: SpecKind.II}


def lr(s: SpecifiedString) -> SpecifiedString:
    """Re-read the recipe from the other end; the index is kept."""
    return SpecifiedString(_LR_TOGGLE[s.kind], s.index)


def lr_pair(pair: tuple[SpecifiedString, SpecifiedString]) -> tuple[SpecifiedString, SpecifiedString]:
    a, b = pair
    return lr(a), lr(b)


def render_literal(x: MonotypicString) -> str:
    """Sample form: enough letters to fix the string, ellipsis on the open end."""
    if x.orientation is _L:
        return _literal(_I, 0) if x.zeros is OMEGA_MANY else _literal(_II, x.zeros)
    return _literal(_IV, 0) if x.ones is OMEGA_MANY else _literal(_III, x.ones)


def _literal(kind: SpecKind, c: int) -> str:
    """The literal of family `kind`'s string at count c: three letters pad count 0, two pad the others."""
    if kind is _I or kind is _IV:
        return "000..." if kind is _I else "...111"
    pad = 3 if c == 0 else 2
    return "0" * c + "1" * pad + "..." if kind is _II else "..." + "0" * pad + "1" * c


def render_literals(kind: SpecKind, counts) -> list[str]:
    """`render_literal` of family `kind`'s string at each count c of a run (recipe c + 1, `realize`).

    The counts ascend or descend.  Above count 0 a literal is the one at the run's top count, less
    the top - c letters of the count: III drops ones on the right, II zeros on the left.
    """
    if not counts:
        return []
    top = counts[0] if counts[0] > counts[-1] else counts[-1]
    text, zero = _literal(kind, top), _literal(kind, 0)
    if kind is _III:
        return [text[:len(text) - top + c] if c else zero for c in counts]
    if kind is _II:
        return [text[top - c:] if c else zero for c in counts]
    return [text] * len(counts)


def render_compact(x: MonotypicString) -> str:
    """Count form, the reading direction marked by the arrow."""
    z = "w" if is_omega(x.zeros) else str(x.zeros)
    o = "w" if is_omega(x.ones) else str(x.ones)
    body = f"0^{z} 1^{o}"
    return body + " ->" if x.orientation is Orientation.L else "<- " + body


_ELLIPSES = ("⋯", "…", "...")


def parse_literal(text: str) -> MonotypicString:
    """Parse a sample literal such as "...0011" or "0111..."."""
    t = text.strip()
    for e in _ELLIPSES[:2]:
        t = t.replace(e, "...")
    left_open = t.startswith("...")
    right_open = t.endswith("...")
    if left_open == right_open:
        raise BadLiteral(f"need an ellipsis on exactly one end: {text!r}")
    body = t[3:] if left_open else t[:-3]
    if not body or set(body) - {"0", "1"}:
        raise BadLiteral(f"bad string body: {text!r}")
    zeros = len(body) - len(body.lstrip("0"))
    ones = len(body) - zeros
    if body != "0" * zeros + "1" * ones:
        raise BadLiteral(f"not monotypic (zeros then ones): {text!r}")
    if right_open:
        # 0^zeros 1^... ; with no ones shown this is the all-zero string
        if ones == 0:
            return ALL_ZEROS_L
        return MonotypicString(Orientation.L, zeros, OMEGA_MANY)
    if zeros == 0:
        return ALL_ONES_R
    return MonotypicString(Orientation.R, OMEGA_MANY, ones)


def parse_pair_literal(text: str) -> PairString:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise BadLiteral(f"pair literal needs parentheses: {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise BadLiteral(f"pair literal needs two components: {text!r}")
    return PairString(parse_literal(parts[0]), parse_literal(parts[1]))
