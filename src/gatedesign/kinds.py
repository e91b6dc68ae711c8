"""Gate-set kinds, bound methods, the Haar draws behind a set's size and the
per-gate exponent of the bounds linear in S, kept apart from :mod:`bounds` so
the sampler, the command line and the closed form of :mod:`solver` read them
without loading the bound machinery and numpy."""
import enum
import math


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


def _draws(kind, S):
    """The Haar draws behind S gates of a kind: S/2 for a symmetric set, whose
    S must be even, and S otherwise (a lifted set's S counts its draws)."""
    if kind is GateSetKind.SYMMETRIC and S % 2:
        raise ValueError(f"symmetric sets have even cardinality, got {S}")
    return S // 2 if kind is GateSetKind.SYMMETRIC else S


def _log1m_sq(delta):
    """log(1 - d^2): log1p(-d^2) while d^2 < 1/2, and log((1-d)(1+d)) from
    there on, where 1 - d is exact and rounding d^2 would cost precision as
    d -> 1."""
    if delta * delta < 0.5:
        return math.log1p(-delta * delta)
    return math.log((1.0 - delta) * (1.0 + delta))


def _s_linear_exponent(method, S, delta, fs2):
    """The exponent a bound linear in S adds to log(2 d_lam).

    Bernstein-plain: -3 S delta^2 / (6 + 2 delta).
    Bernstein-symmetric: -3 S delta^2 / (6 (1 + delta_lam(2)) + 4 delta),
    with fs2 = delta_lam(2) one value or, elementwise, an array of them.
    Master-plain: log of (1 - delta^2)^{-S/2} exp(-delta S arctanh delta).
    """
    if method is Method.BERNSTEIN_PLAIN:
        return -3.0 * S * delta**2 / (6.0 + 2.0 * delta)
    if method is Method.BERNSTEIN_SYMMETRIC:
        return -3.0 * S * delta**2 / (6.0 * (1.0 + fs2) + 4.0 * delta)
    return -0.5 * S * _log1m_sq(delta) - delta * S * math.atanh(delta)
