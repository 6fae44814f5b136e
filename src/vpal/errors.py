"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class BudgetExceeded(RuntimeError):
    """Factorization ran out of its operation budget.

    ``partial`` holds the (prime, exponent) pairs already split off and
    ``cofactor`` the remaining unsplit part, so the original input equals
    ``cofactor * product(p**e for p, e in partial)``.
    """

    def __init__(self, partial, cofactor):
        self.partial = partial
        self.cofactor = cofactor
        super().__init__(
            f"factorization budget exhausted with cofactor {cofactor} unsplit"
        )


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file cannot be trusted; the search refuses to run."""


class HeterogeneousRecords(ValueError):
    """csv/bfile export received records of mixed kinds."""
