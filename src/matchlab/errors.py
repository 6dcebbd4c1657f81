"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, InternalCheckError -> 3.
"""


class MatchlabError(Exception):
    """Base class for all package errors."""


class InputError(MatchlabError):
    """Bad user input: malformed files, out-of-range parameters, unknown names."""


class ParseError(InputError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message

    def __reduce__(self):  # pickled whole, as from a run worker to its parent
        return type(self), (self.path, self.line_no, self.message)


class ProtocolError(MatchlabError):
    """A policy violated the round protocol (e.g. out-of-range selection)."""


class InternalCheckError(MatchlabError):
    """A hard internal invariant failed (e.g. yardstick dominance)."""
