"""Error taxonomy shared by all qlorakit modules.

Every failure a caller is expected to branch on maps to one of these
types; the CLI translates them to stable exit codes.
"""


class QlorakitError(Exception):
    """Base class for all package errors."""


class ShapeError(QlorakitError, ValueError):
    """Matrix dimensions do not compose; message names both shapes."""


class InputError(QlorakitError, ValueError):
    """A runtime input (data, tokens, file contents) violates a precondition."""


class ConfigError(QlorakitError, ValueError):
    """A configuration value or key is invalid; message names the key."""


class QAParseError(QlorakitError, ValueError):
    """An LLM response did not match the expected grammar; the message names the fault."""


class TransportError(QlorakitError, RuntimeError):
    """A remote backend was unreachable or kept failing; names the endpoint."""


class NumericError(QlorakitError, ArithmeticError):
    """A non-finite value appeared where the math requires finite numbers."""
