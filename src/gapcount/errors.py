"""The base class of every precondition error that gapcount raises."""


class GapcountError(ValueError):
    """An input that violates a precondition of a gapcount call."""
