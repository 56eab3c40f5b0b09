"""Exception types shared across the package, and the base of its immutable records."""


class Frozen:
    """Base of the package's immutable records: assigning an attribute raises.
    A subclass writes its ``__slots__`` once, in its constructor, with :meth:`_set`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class ValidationError(Exception):
    """Input data violates a structural requirement (Jacobi, J*J = -I, ...)."""


class PreconditionError(Exception):
    """An operation was called outside its documented domain."""


class NotSolvableError(Exception):
    """A linear system has no solution in the requested span."""


class SelfCheckError(Exception):
    """Two independent computations of the same quantity disagree.

    Raised when a dual-route consistency check fails; indicates a bug, never
    bad user input.
    """


class ParseError(Exception):
    """Syntax error in an .alg file, with 1-based position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
