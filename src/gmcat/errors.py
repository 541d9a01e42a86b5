"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Data fails a structural precondition (non-composable, bad shape, failed lift)."""


class FreenessError(StructuralError):
    """A group action required to be free has a fixed point."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class BoundExceeded(RuntimeError):
    """A construction left the configured arity/truncation bound."""
