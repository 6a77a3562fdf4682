"""Outage analysis for Type-I HARQ over rank-one (keyhole) MIMO channels.

The channel gain behind every retransmission round is the product of two
independent Erlang variables, one per antenna array. This package provides
the exact per-round outage CDF of that product, closed-form high-SNR
asymptotics (diversity order and, for square arrays, the SNR scale of the
asymptote), and an independent Monte Carlo simulator used to validate both.
"""

__version__ = "0.1.0"

from .analysis import (
    OutageProbability,
    asymptotic_outage,
    coding_gain,
    diversity_order,
    exact_outage,
    outage_curve,
    outage_threshold,
)
from .errors import (
    DomainError,
    SimulationInfeasibleError,
    UnsupportedConfigError,
)
from .keyhole import (
    ChannelDraw,
    SystemConfig,
    mutual_information_round,
    sample_channel,
)
from .montecarlo import (
    SimulationResult,
    empirical_diversity_slope,
    sample_round_gains,
    simulate_outage,
)
from .specfun import (
    bessel_k_scaled,
    gain_pdf,
    meijer_g_cdf,
    meijer_g_log_cdf,
)

__all__ = [
    "__version__",
    "ChannelDraw",
    "DomainError",
    "OutageProbability",
    "SimulationInfeasibleError",
    "SimulationResult",
    "SystemConfig",
    "UnsupportedConfigError",
    "asymptotic_outage",
    "bessel_k_scaled",
    "coding_gain",
    "diversity_order",
    "empirical_diversity_slope",
    "exact_outage",
    "gain_pdf",
    "meijer_g_cdf",
    "meijer_g_log_cdf",
    "mutual_information_round",
    "outage_curve",
    "outage_threshold",
    "sample_channel",
    "sample_round_gains",
    "simulate_outage",
]
