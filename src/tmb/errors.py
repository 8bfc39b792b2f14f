"""Exception types shared across the package."""


class TmbError(Exception):
    """Base class for all package-specific errors."""


class QuadratureFailureError(TmbError, RuntimeError):
    """Adaptive quadrature could not meet its tolerance within budget."""


class StiffnessError(TmbError, RuntimeError):
    """Integrator step size collapsed below the resolvable scale."""

    def __init__(self, radius, step):
        self.radius = radius
        self.step = step
        super().__init__(f"step size {step!r} below resolvable scale at radius {radius!r}")


class NoSignChangeError(TmbError, ValueError):
    """A root-refinement bracket does not actually bracket a sign change."""


class ZeroNotReachedError(TmbError, RuntimeError):
    """The requested zero was not reached: the integration hit the radius cap
    or the step budget first, or (shooting._build_solution) an interior peak
    before it was not detected."""

    def __init__(self, message, zeros_found=0, radius=None):
        self.zeros_found = zeros_found
        self.radius = radius
        super().__init__(message)


class NoSolutionInRangeError(TmbError, RuntimeError):
    """No node pair of the traced branch lambda_k(s) brackets a root at the
    target.  turn, when given, is the (s, lambda) of the turning point at
    which the branch turned back before reaching the target."""

    def __init__(self, target, lam_min, lam_max, s_min, s_max, turn=None):
        self.target = target
        self.lam_range = (lam_min, lam_max)
        self.s_range = (s_min, s_max)
        self.turn = turn
        super().__init__(
            f"no solution with lambda={target!r} in scanned range "
            f"lambda in [{lam_min:.6g}, {lam_max:.6g}] "
            f"(amplitudes s in [{s_min:.6g}, {s_max:.6g}])"
            + (f"; the branch turns at lambda={turn[1]:.7g} (s={turn[0]:.6g}) "
               "before reaching it" if turn else "")
        )


class WindowTooLargeError(TmbError, ValueError):
    """A rescaled profile window leaves the nodal domain."""


class FamilyEmptyError(TmbError, RuntimeError):
    """Every member of a parameter family failed to solve."""


class ConfigError(TmbError, ValueError):
    """An experiment configuration is malformed.

    `field` names the offending key; `location` is a human-readable
    position hint (file/section/line).
    """

    def __init__(self, message, field=None, location=None):
        self.field = field
        self.location = location
        parts = [message]
        if field is not None:
            parts.append(f"field: {field}")
        if location is not None:
            parts.append(f"at: {location}")
        super().__init__(" | ".join(parts))
