"""Gate-set kinds and bound methods.

Kept apart from :mod:`bounds` so that the sampler and the command line can
name a kind or a method without loading the bound machinery and numpy.
"""
import enum


class GateSetKind(enum.Enum):
    PLAIN = "plain"
    SYMMETRIC = "symmetric"
    BEAMSPLITTER_LIFTED = "beamsplitter"


class Method(enum.Enum):
    BERNSTEIN_PLAIN = "bernstein-plain"
    BERNSTEIN_SYMMETRIC = "bernstein-symmetric"
    MASTER_PLAIN = "master-plain"
    MASTER_SYMMETRIC = "master-symmetric"
    MASTER_SYMMETRIC_SIMPLIFIED = "master-symmetric-simplified"

    @property
    def kind(self):
        if self in (Method.BERNSTEIN_PLAIN, Method.MASTER_PLAIN):
            return GateSetKind.PLAIN
        return GateSetKind.SYMMETRIC


def methods_for_kind(kind):
    """Bound methods applicable to a gate-set kind, given as a
    :class:`GateSetKind` or its value (none for lifted sets)."""
    kind = GateSetKind(kind)
    return tuple(m for m in Method if m.kind is kind)
