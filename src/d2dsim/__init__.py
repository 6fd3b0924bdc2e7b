"""Seeded Monte Carlo simulator for device-to-device links sharing the LTE
uplink: hexagonal geometry, large-scale channel models, open-loop power
control, coordination and proportional-fair scheduling, and the experiment
engine behind the `d2dsim` command.

The package namespace holds the names of the README session and the
experiment API; everything else is imported from its submodule."""

__version__ = "0.1.0"

from .layout import Terminals, build_hex_grid, drop_d2d_pairs
from .channel import ChannelConfig, build_coupling_table, sector_endpoint, ue_endpoint
from .radio import compute_sinr
from .scheduling import ORTHOGONAL_TDM, activation_pattern
from .engine import (
    ExperimentConfig,
    build_drop,
    discovery_overhead,
    fraction_above,
    percentile,
    run_sinr_experiment,
    run_throughput_experiment,
    sinr_summary,
    throughput_summary,
)
