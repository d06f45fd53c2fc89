"""Typed errors and the check report shared across the package.

The CLI maps WeylgError subclasses to exit code 2 (typed failure) and
treats report mismatches as exit code 1 (validation failure).
"""

from typing import NamedTuple


class Check(NamedTuple):
    """One named check of a Report.

    `note` says what held (a table or witness check) or, on a failing
    check only, what went wrong; a passing axiom or identity check has
    no note.  `printed_exact` is False where a recorded chain holds only
    after a documented repair.
    """

    name: str
    ok: bool
    note: str = ""
    printed_exact: bool = True


class Report:
    """The certificate of a batch of checks, in the order they ran.

    Every verifier returns one: the Cartan-graph axioms C1/C2, the root
    axioms R1-R4, the Laurent-polynomial identities and the boundary
    tables and witnesses.  AxiomViolation carries its failures.
    """

    def __init__(self):
        self.checks = []

    def record(self, name, ok, note="", printed_exact=True):
        self.checks.append(Check(name, bool(ok), note, printed_exact))

    @property
    def ok(self):
        return all(check.ok for check in self.checks)

    def failures(self):
        return [check for check in self.checks if not check.ok]

    @property
    def counterexample(self):
        """The first failure's note, or its name if the note is empty;
        empty when every check passed."""
        first = next((c for c in self.checks if not c.ok), None)
        return "" if first is None else first.note or first.name


class WeylgError(Exception):
    """Base class for all typed errors raised by this package."""


class InvalidArguments(WeylgError, ValueError):
    pass


class SchemaError(WeylgError, ValueError):
    """Malformed JSON input; message carries the offending path."""


class UndefinedCartanEntry(WeylgError):
    """No m up to the search bound satisfies the vanishing condition.

    Carries the pair and the bound m_max.  The condition has period M in
    m, so when the search covered 0..M-1 (m_max >= M-1) the entry
    provably does not exist and the message says so; otherwise only the
    bound was exhausted.
    """

    def __init__(self, pair, m_max, period):
        self.pair = pair
        self.m_max = m_max
        if m_max >= period - 1:
            message = (
                f"no Cartan entry for pair {pair}: the vanishing condition "
                f"has period {period} in m and fails for every m <= "
                f"{period - 1}"
            )
        else:
            message = f"no Cartan entry for pair {pair} with m <= {m_max}"
        super().__init__(message)


class OddDegreeError(WeylgError):
    """Groupoid-level operations require an even tensor degree."""


class ObjectLimitExceeded(WeylgError):
    """Reflection closure grew past max_objects (possibly infinite)."""


class AxiomViolation(WeylgError):
    """A generated closure violates the Cartan-graph axioms.

    The vanishing condition is preserved at m = -c across a reflection
    (the eigenvector argument), but nothing forces minimality below m
    for degree >= 4, and concrete tensors do violate it; the closure is
    then not a Cartan graph.  Carries the failed checks of the
    Report, a list of Check whose first field is the name.
    """

    def __init__(self, failures):
        self.failures = failures
        first = failures[0].name if failures else "unknown"
        super().__init__(
            f"closure violates the Cartan-graph axioms ({first}, "
            f"{len(failures)} failed checks)"
        )


class DepthExceeded(WeylgError):
    """Root closure did not stabilize within the composition depth cap."""


class NonPeriodic(WeylgError):
    """The alternating reflection walk hit its step cap without recurring."""


class NotAQuiddityCycle(WeylgError):
    """Ear-cutting failed: the sequence does not encode a triangulation."""


class BoundExceeded(WeylgError):
    """Cell enumeration or matrix size exceeded the configured bounds."""


class CellShapeError(WeylgError, ValueError):
    """A cochain was evaluated on a cell shape it does not define."""
