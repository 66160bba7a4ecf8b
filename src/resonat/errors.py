"""Exception types shared across the library."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class SingularEvaluationError(InvalidArgumentError):
    """A kernel was evaluated at its singular point."""


class ResonanceProximityError(RuntimeError):
    """1/tau (or z) is refused by the resonance rule of
    volume.refuse_near_spectrum: |z - lambda| < RESONANCE_TOL (1 + |lambda|)
    for an eigenvalue lambda. The cluster tolerance only groups eigenvalues.

    Carries the offending eigenvalue so callers can report or re-tune tau.
    """

    def __init__(self, z, eigenvalue):
        self.z = z
        self.eigenvalue = eigenvalue
        super().__init__(
            f"evaluation point z={z} is within tolerance of eigenvalue {eigenvalue}"
        )


class DiscrepancyInfeasibleError(RuntimeError):
    """Morozov's principle cannot be satisfied for the requested delta."""


class NumericFailureError(RuntimeError):
    """A dense linear-algebra routine failed to converge, or its matrices
    cannot fit in memory."""
