"""Exceptions shared across the package.

Domain violations (bad parameters, malformed input) raise plain ValueError
subclasses; blowing a configured cost ceiling raises a limit error so callers
can tell "you asked for something invalid" apart from "that would take too
long".
"""


# The deepest recursion a brute-force search starts.  CPython's default
# recursion limit is 1000, and the frames below a search's entry point need
# room too.
MAX_SEARCH_DEPTH = 800


class BudgetExceededError(RuntimeError):
    """A search visited more nodes than its configured budget allows."""


class VertexLimitError(RuntimeError):
    """A graph was too large for the exact engine's vertex ceiling."""


class GraphParseError(ValueError):
    """A graph text document failed to parse; carries the offending line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
