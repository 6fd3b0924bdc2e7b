"""Seeded Monte Carlo simulator for device-to-device links sharing the LTE
uplink: hexagonal geometry, large-scale channel models, open-loop power
control, coordination and proportional-fair scheduling, and the experiment
engine behind the `d2dsim` command."""

__version__ = "0.1.0"

from .layout import (
    MIN_UE_UE_DISTANCE_M,
    NetworkLayout,
    Point,
    Role,
    Sector,
    UeRecord,
    build_hex_grid,
    drop_cellular_ues,
    drop_d2d_pairs,
    hex_circumradius,
    sector_of_point,
    wrap_distance,
)
from .channel import (
    ChannelConfig,
    CouplingTable,
    build_coupling_table,
    draw_shadowing,
    los_probability,
    sector_antenna_gain,
    sector_endpoint,
    ue_endpoint,
    ue_enb_pathloss,
    ue_ue_pathloss,
)
from .radio import (
    Coverage,
    PowerControlConfig,
    RadioConfig,
    classify_coverage,
    compute_sinr,
    open_loop_tx_power,
    rate_from_sinr,
    thermal_noise_dbm,
)
from .scheduling import (
    ORTHOGONAL_TDM,
    UNCOORDINATED,
    CoordinationMode,
    Flow,
    PfResult,
    activation_pattern,
    pf_select,
    pf_update,
    run_pf_uplink,
    spatial_reuse,
)
from .engine import (
    ExperimentConfig,
    ExperimentReport,
    PowerSetting,
    build_drop,
    discovery_overhead,
    drop_stream_seed,
    expected_sinr_sample_count,
    fraction_above,
    percentile,
    run_experiment,
    run_sinr_experiment,
    run_throughput_experiment,
    sinr_summary,
    sweep_settings,
    throughput_summary,
)
