"""Exception hierarchy shared by all wamkit modules, and the one budget
that every enumeration and table is checked against."""


class WamkitError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(WamkitError):
    """Bad field construction or mixing elements of different fields."""


class AlgebraError(WamkitError):
    """Invalid polynomial/matrix operation (unmapped variable, bad shape,
    non-exact division, residual root-of-unity components)."""


class BudgetError(WamkitError):
    """An enumeration would exceed the configured budget."""


BUDGET = 2 ** 22


def check_budget(what, edges, cells=0, nbytes=0):
    """Raise BudgetError if building `what` would enumerate more than
    BUDGET edges (or codewords), fill more than BUDGET matrix cells or
    pack more than BUDGET bytes.  Callers check before they allocate
    anything."""
    for count, noun in ((edges, "edges"), (cells, "matrix cells"),
                        (nbytes, "bytes")):
        if count > BUDGET:
            raise BudgetError("%s needs %d %s, which exceeds the budget of %d"
                              % (what, count, noun, BUDGET))


class ShapeError(WamkitError):
    """A matrix could not be brought to a required block shape."""


class FormatError(WamkitError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
