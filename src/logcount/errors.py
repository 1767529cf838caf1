"""Exception types shared across the package."""

# Largest |ln(sigma)| the intensity recursion may reach before ExplosionError.
LOG_SIGMA_LIMIT = 700.0


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values or inconsistent inputs."""


class DataError(ValueError):
    """Malformed input data (count series files, CSV payloads)."""


class NumericError(RuntimeError):
    """A numeric routine failed to reach its accuracy or stability target."""


class ExplosionError(NumericError):
    """The intensity recursion left the representable range."""

    def __init__(self, t: int, log_sigma: float):
        super().__init__(
            f"intensity recursion exploded at t={t}: "
            f"|ln(sigma)| = {abs(log_sigma):.4g} > {LOG_SIGMA_LIMIT:g}"
        )
        self.t = t
        self.log_sigma = log_sigma

    def __reduce__(self):  # pickle rebuilds from (t, log_sigma), not from the message
        return type(self), (self.t, self.log_sigma)
