"""Exception types shared across the package."""

import math
from fractions import Fraction


class YBKError(Exception):
    """Base class for every error this package raises deliberately."""


class NotAUnit(YBKError):
    """A residue that must be invertible modulo m is not."""

    def __init__(self, value: int, modulus: int):
        super().__init__(f"{value} is not a unit modulo {modulus}")
        self.value = value
        self.modulus = modulus


class ProductNotZero(YBKError):
    """(1-s)(1-t) does not vanish modulo q."""


class ModulusMismatch(YBKError):
    """Binary operation on values with different moduli."""


class ArityMismatch(YBKError):
    """Cochain arity, set size, or modulus inconsistent with the operation."""


class NotBiquandle(YBKError):
    """The fixed-pair condition fails for some element."""

    def __init__(self, element: int, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"no unique fixed pair for element {element}{detail}")
        self.element = element


class ColoringInconsistent(YBKError):
    """An edge of the cube received two distinct colors during propagation."""

    def __init__(self, edge):
        super().__init__(f"conflicting colors at edge {edge}")
        self.edge = edge


class NotACocycle(YBKError):
    """The given cochain is not a cocycle."""


class ResourceBound(YBKError):
    """The requested computation exceeds the configured size cap."""


def shown(count: int) -> int | str:
    """count as a message prints it: past 2^256 a power of two, "2^k or
    more", as Python prints no int of more than 4300 digits."""
    if count >= 2 ** 256:
        return f"2^{int(count).bit_length() - 1} or more"
    return count


def check_cap(stage: str, what: str, count: int, cap: int):
    """Raise ResourceBound, naming the stage and the estimated size, when
    `count` (the size of `what`) exceeds `cap`; both are `shown`."""
    if count > cap:
        raise ResourceBound(
            f"{stage}: {what} = {shown(count)} exceeds the cap {shown(cap)}")


# Most bits of a power that `check_power_cap` computes exactly: 3^41350,
# of 65539 bits, takes about 0.3 ms, and 3^(10^7) about 1.8 s.
_EXACT_POWER_BITS = 2 ** 16


def _power_bits(base: int, exponent: int) -> int:
    """A k with base^exponent >= 2^k, read from exponent * log2(base)
    alone: a floor of that product less a margin far wider than the
    rounding of log2, in exact fractions so that no exponent overflows a
    float."""
    return math.floor(Fraction(math.log2(base)) * exponent
                      * (1 - Fraction(1, 2 ** 40)))


def shown_power(base: int, exponent: int) -> int | str:
    """`shown`(base^exponent), computing the power only while its lower
    bound 2^(exponent * (bits of base - 1)) is at most 2^256, so that the
    power has at most 512 bits; past that it is "2^k or more"."""
    if exponent * (base.bit_length() - 1) <= 256:
        return shown(base ** exponent)
    return f"2^{_power_bits(base, exponent)} or more"


def check_power_cap(stage: str, what: str, base: int, exponent: int,
                    cap: int):
    """`check_cap` on base^exponent, where a power of more than 2^16 bits
    and past the cap is refused from `_power_bits` alone, before it is
    computed, as "2^k or more"."""
    if base > 1 and exponent > 0 and \
            exponent * base.bit_length() > _EXACT_POWER_BITS:
        k = _power_bits(base, exponent)
        if k > max(_EXACT_POWER_BITS, cap.bit_length()):
            raise ResourceBound(f"{stage}: {what} = 2^{k} or more exceeds "
                                f"the cap {shown(cap)}")
    check_cap(stage, what, base ** exponent, cap)


class BraidSyntaxError(YBKError):
    """Malformed braid word text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRange(YBKError):
    """Braid generator index does not fit the declared strand count."""
