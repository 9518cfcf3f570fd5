"""Exceptions shared across modules."""


class UsageError(ValueError):
    """A request the caller has to change: a malformed spec, family
    parameters out of range, a bad field list or S-pair budget.  Raised
    before any work; the command line reports it with exit code 2."""


class ResourceLimitError(RuntimeError):
    """A configured resource budget (S-pair count, instance size) was exceeded.

    Raised instead of returning a possibly wrong answer; carries enough
    context to report which stage gave up.
    """

    def __init__(self, message, *, stage=None, detail=None):
        super().__init__(message)
        self.stage = stage
        self.detail = detail
