"""Exception types shared across the package, each with its CLI exit code."""


class KMError(Exception):
    """Domain error base: the CLI prints `kind: message` and exits `exit_code`."""

    exit_code = 2
    kind = "error"


class InputError(KMError):
    """Malformed input: an unreadable document or a matrix that is not a GCM."""

    kind = "input error"


class Inapplicable(KMError):
    """A formula's hypothesis fails: diagram type, rank, integrality or stabilizer."""

    exit_code = 3
    kind = "method inapplicable"


class BudgetExceeded(KMError):
    """Work is over a size budget: oracle words, Weyl group, denominator terms."""

    exit_code = 4
    kind = "budget exceeded"
