"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input (bad permutation, mismatched codomain, ...)."""


class UndecidedError(RuntimeError):
    """A certification routine exhausted its strategies without a verdict.

    Raised instead of guessing; callers treat it as a failure, never as a
    silent default.  The decomposition's raises name p, dim M, dim End M and
    dim J(End M) of the module where they fired.
    """


class TheoremViolationError(RuntimeError):
    """A machine check contradicted a theorem the implementation relies on.

    This always indicates a defect in the implementation or its inputs,
    not in the underlying mathematics.
    """
