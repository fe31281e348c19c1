"""Exception types shared across the library."""


class DiffreesError(Exception):
    """Base class for all library errors."""


class ContextMismatchError(DiffreesError, ValueError):
    """Operands live in different polynomial rings."""


class ParseError(DiffreesError):
    """Bad polynomial or case-file syntax, with position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ExponentOverflowError(DiffreesError, ValueError):
    """An exponent reached 2^31, past the field the Groebner kernel packs
    each exponent into."""


class NotHomogeneousError(DiffreesError, ValueError):
    """A saturation or an intersection got an ideal or an element that is
    not homogeneous for its ring's weights, as the Bayer-Stillman
    division needs."""


class StepBudgetExceeded(DiffreesError):
    """A Groebner computation ran out of its reduction-step budget.

    This is a resource error, never a wrong answer: callers may retry
    with a larger budget.
    """


class ResolutionLengthError(DiffreesError):
    """A syzygy tower exceeded its maximum permitted length."""


class ValidationError(DiffreesError):
    """A presented algebra violates one of the input hypotheses; its
    message is the first violation's, and `.issues` lists every one."""


class NotReducedError(DiffreesError):
    """Torsion/Rees constructions refuse non-reduced input algebras."""


class TestElementSearchError(DiffreesError):
    """No nonzerodivisor test element was found within the retry bound.

    Either the input is not reduced or the draw was unlucky; rerunning
    with a different seed is the suggested remedy.
    """
