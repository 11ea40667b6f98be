"""Exception types shared across the toolkit.

Every error is a ValueError subclass so that careless call sites still fail
loudly, while precise call sites can catch the specific condition.
"""

from __future__ import annotations


class BadSpec(ValueError):
    """A graph or family specification failed validation."""


class TooLarge(ValueError):
    """An input exceeds the documented size cap for an exact algorithm."""


class TooManyBlocks(TooLarge):
    """A stable-partition type has more blocks than the configured cap."""


class NotConnected(ValueError):
    """The operation requires a connected graph."""


class NotBipartite(ValueError):
    """The operation requires a bipartite graph."""


class NotStableTriple(ValueError):
    """The three named vertices are not pairwise non-adjacent."""


class DegreeMismatch(ValueError):
    """Arithmetic attempted on homogeneous functions of different degrees."""


class BasisMismatch(ValueError):
    """Arithmetic attempted on functions expressed in different bases."""


class EmptyFunction(ValueError):
    """An extremal query was made on the zero function."""


class InternalContradiction(ValueError):
    """Two parts of the toolkit disagree about one input.

    A screener that rejects a graph whose expansion is nonnegative, or a
    solve that leaves a residual, means one of them is implemented wrongly:
    a bug, never bad input.  Sweeps record it on the instance's row, and
    the CLI exits 4.
    """


class SingularSystem(InternalContradiction):
    """A basis-change solve did not terminate with a zero residual.

    The monomial transition matrices of the e, p and s bases are
    unitriangular up to scaling, so this indicates a bug, never bad input.
    """


class BadParity(ValueError):
    """A closed form was requested for leg lengths with the wrong parities."""


class UnknownSuite(ValueError):
    """An unrecognized verification suite name."""
