"""The exception type shared across the solver stack.

Argument validation raises the built-in ``ValueError``; ``NumericalError``
covers every failure that can only be detected while the numerics are
running.
"""


class NumericalError(RuntimeError):
    """The numerics failed at run time.

    Raised when a linear solve misses its residual tolerance, when the
    multiplier selection meets a non-positive auxiliary-state integral
    (which the extremum principle rules out on any usable grid), and when
    a converged projection misses the constraint it pins.
    """
