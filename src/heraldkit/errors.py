"""Exception types raised by heraldkit."""


class HeraldkitError(Exception):
    """Base class for all package-specific failures."""


class HermiteOverflowError(HeraldkitError):
    """Raised when the Hermite recurrence leaves the double range.

    Attributes:
        index: first polynomial order at which the overflow occurred.
    """

    def __init__(self, index: int, argument: complex):
        self.index = index
        self.argument = argument
        super().__init__(
            f"Hermite recurrence overflowed at order {index} "
            f"for argument {argument!r}"
        )


class TailMassError(HeraldkitError):
    """Raised when too much probability sits in the top Fock levels.

    Signals that the requested cutoff is too small for the state being
    represented and the computation would not be trustworthy.
    """

    def __init__(self, tail_mass: float, cutoff: int):
        self.tail_mass = tail_mass
        self.cutoff = cutoff
        super().__init__(
            f"tail mass {tail_mass:.3e} above the allowed limit at "
            f"cutoff {cutoff}; increase the cutoff"
        )


class TruncationQualityError(HeraldkitError):
    """Raised when squeezing pushes more than TAIL_MASS_LIMIT of the
    resource target's mass above the cutoff."""


class NormalizationError(HeraldkitError):
    """Raised when a state that must be normalized is not, or when a zero
    vector is asked to normalize itself."""


class ConfigError(HeraldkitError):
    """Raised for malformed, incomplete, or out-of-range configuration.

    Attributes:
        path: dotted path of the offending field, empty for file-level
            problems.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        if path:
            super().__init__(f"{path}: {message}")
        else:
            super().__init__(message)
