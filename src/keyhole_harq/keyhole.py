"""Rank-one (keyhole) MIMO channel model and per-round mutual information.

Each HARQ round k sees an independent channel H_k = u_k v_k^H where
u_k (receive side, length n_r) and v_k (transmit side, length n_t) have
i.i.d. unit-variance circularly symmetric complex Gaussian entries. With an
isotropic Gaussian codebook and unit-variance noise, the round carries

    I_k = log2(1 + (snr_k / n_t) * |u_k|^2 |v_k|^2)

bits/s/Hz, and a decoder that always retries the same packet achieves
max_k I_k after K rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, check_count, check_real

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelDraw",
    "sample_channel",
    "mutual_information_round",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SystemConfig:
    """Frozen description of one operating point.

    ``snr_per_round`` holds the per-round average SNRs in linear scale, one
    entry per HARQ round (so its length equals ``k_rounds``).
    """

    n_t: int
    n_r: int
    k_rounds: int
    rate: float
    snr_per_round: tuple

    def __post_init__(self) -> None:
        # checked values go straight into the frozen instance's dict: five
        # object.__setattr__ calls cost about 0.3 us a point-loop curve point
        fields = vars(self)
        for name in ("n_t", "n_r", "k_rounds"):
            fields[name] = check_count(name, fields[name])
        fields["rate"] = check_real("rate", self.rate)
        # quoted as floats, as a curve's parsed SNR columns quote them
        snrs = tuple(map(float, self.snr_per_round))
        if len(snrs) != self.k_rounds:
            raise ValueError(
                f"snr_per_round has {len(snrs)} entries for {self.k_rounds} "
                "rounds"
            )
        for g in snrs:
            check_real("per-round SNR", g, True)
        fields["snr_per_round"] = snrs

    @property
    def tau(self) -> int:
        """Antenna asymmetry |n_t - n_r|; zero for square arrays."""
        return abs(self.n_t - self.n_r)

    @classmethod
    def equal_snr(
        cls, n_t: int, n_r: int, k_rounds: int, rate: float, snr: float
    ) -> "SystemConfig":
        """All rounds at the same linear SNR."""
        return cls(n_t, n_r, k_rounds, rate, (float(snr),) * int(k_rounds))


@dataclass(frozen=True, eq=False)
class ChannelDraw:
    """One realization: receive vector u, transmit vector v, and the
    equivalent scalar gain |u|^2 |v|^2."""

    u: np.ndarray
    v: np.ndarray
    x_gain: float


def sample_channel(n_t: int, n_r: int, rng: np.random.Generator) -> ChannelDraw:
    """Draw one keyhole channel H = u v^H.

    Entries of u and v are CN(0, 1): real and imaginary parts are independent
    N(0, 1/2). All 2(n_r + n_t) variates come from a single generator call,
    u parts first, so the stream layout is stable.
    """
    n_t = check_count("n_t", n_t)
    n_r = check_count("n_r", n_r)
    import numpy as np

    z = rng.standard_normal(2 * (n_r + n_t)) * math.sqrt(0.5)
    u = z[:n_r] + 1j * z[n_r:2 * n_r]
    v = z[2 * n_r:2 * n_r + n_t] + 1j * z[2 * n_r + n_t:]
    x = float(np.sum(u.real**2 + u.imag**2) * np.sum(v.real**2 + v.imag**2))
    return ChannelDraw(u=u, v=v, x_gain=x)


def db_to_linear(db: float) -> float:
    """Linear SNR of a dB value; ``DomainError`` past float64 (~3083 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"SNR {db!r} dB overflows float64") from None


def mutual_information_round(x_gain: float, snr: float, n_t: int) -> float:
    """log2(1 + (snr/n_t) x_gain) in bits/s/Hz.

    Rank-one channels have a single nonzero eigenmode, so the MIMO
    log-determinant collapses to this scalar expression. Where
    (snr/n_t) x_gain overflows float64 it is log2 snr + log2 x_gain -
    log2 n_t, which the dropped 1 cannot change.
    """
    n_t = check_count("n_t", n_t)
    x_gain = check_real("x_gain", x_gain)
    snr = check_real("snr", snr, positive=True)
    v = snr * x_gain / n_t
    if v == math.inf:  # past float64, the log of the product is a sum
        return (math.log(snr) + math.log(x_gain) - math.log(n_t)) / _LN2
    return math.log1p(v) / _LN2

