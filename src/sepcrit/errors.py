"""Exception types shared across the package."""


class SepcritError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SepcritError):
    pass


class NonHermitian(SepcritError):
    pass


class NotPSD(SepcritError):
    pass


class SingularNegativePower(SepcritError):
    pass


class InvalidParameters(SepcritError):
    pass


class NotAntisymmetric(InvalidParameters):
    pass


class CommutativityViolated(SepcritError):
    pass


class PowerOverflow(SepcritError):
    pass


class SingularOperand(SepcritError):
    pass


class ParameterOutOfRange(SepcritError):
    pass


class AllProjectionsVanish(SepcritError):
    pass


class ParseError(SepcritError):
    pass


class InvalidState(SepcritError):
    pass
