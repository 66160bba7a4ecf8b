"""Exception types shared across the library, one per exit code of the CLI."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (CLI exit code 2)."""


class NumericFailureError(RuntimeError):
    """No trustworthy result (CLI exit code 1): 1/tau is refused by the resonance
    rule, a Morozov discrepancy target cannot be met, or a dense linear-algebra
    routine failed to converge or cannot fit its matrices in memory."""


class ResonanceProximityError(NumericFailureError):
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
