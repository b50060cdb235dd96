"""Exception types shared across the package."""


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


class ColoringIncomplete(YBKError):
    """Propagation reached a fixpoint with uncolored edges left."""


class NotACocycle(YBKError):
    """The given cochain is not a cocycle."""


class ResourceBound(YBKError):
    """The requested computation exceeds the configured size cap."""


def check_cap(stage: str, what: str, count: int, cap: int):
    """Raise ResourceBound, naming the stage and the estimated size, when
    `count` (the size of `what`) exceeds `cap`; past 2^256 the size is
    a power of two, as Python prints no int of more than 4300 digits."""
    if count > cap:
        if count >= 2 ** 256:
            count = f"2^{int(count).bit_length() - 1} or more"
        raise ResourceBound(f"{stage}: {what} = {count} exceeds the cap {cap}")


class BraidSyntaxError(YBKError):
    """Malformed braid word text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRange(YBKError):
    """Braid generator index does not fit the declared strand count."""
