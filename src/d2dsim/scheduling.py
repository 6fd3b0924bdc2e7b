"""D2D coordination modes and the subframe-level proportional-fair uplink
scheduler with direct-link offload.

Coordination decides which D2D transmitters are simultaneously on the air:
all of them (uncoordinated), one per sector in round-robin (orthogonal TDM),
or k per sector rotating through the transmitter list so everyone gets equal
airtime (spatial reuse). One activation pattern array encodes all three.

The PF scheduler grants one flow per sector per subframe for the whole band.
Grants at subframe t are chosen from SINRs computed against the transmitters
granted at t-1 (noise-only at t=0); the rates actually served use the grants
concurrently active at t. That one-subframe lag avoids a grant/interference
fixed point.

A `Flow` is an immutable (id, destination) record; terminal `id` is its
transmitter. The PF state lives in arrays indexed by position in flow id
order: one flows x flows coupling matrix gathered from the drop's table, and
per-flow averages. Each subframe makes one `pf_select` call (a first-occurrence
argmax per sector over a padded sectors x flows matrix) and one `pf_update`
call (a vector EMA step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .channel import CouplingTable, UE_NODE, ue_endpoint
from .radio import (
    PowerControlConfig,
    RadioConfig,
    open_loop_tx_power,
    rate_from_sinr,
    receiver_noise_dbm,
)

SUBFRAME_S = 1e-3


@dataclass(frozen=True)
class CoordinationMode:
    kind: str  # "uncoordinated" | "tdm" | "reuse"
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("uncoordinated", "tdm", "reuse"):
            raise ValueError(f"unknown coordination kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"reuse factor must be >= 1, got {self.k}")


UNCOORDINATED = CoordinationMode("uncoordinated")
ORTHOGONAL_TDM = CoordinationMode("tdm")


def spatial_reuse(k: int) -> CoordinationMode:
    return CoordinationMode("reuse", k)


def activation_pattern(mode: CoordinationMode, n_tx: int) -> np.ndarray:
    """Positions within a sector's transmitter list on the air in each
    subframe of one cycle, as a (cycle x k) array with ascending rows.

    Every mode is one rotation: subframe t activates positions
    (t*k + j) mod n_tx for j < k, with k = n_tx (uncoordinated), 1 (TDM) or
    min(k, n_tx) (reuse). The pattern repeats after n_tx // gcd(n_tx, k)
    subframes, in which each transmitter is on the air equally often.
    """
    if n_tx < 0:
        raise ValueError(f"n_tx must be >= 0, got {n_tx}")
    k = min({"uncoordinated": n_tx, "tdm": 1}.get(mode.kind, mode.k), n_tx)
    cycle = n_tx // math.gcd(n_tx, k) if n_tx else 1
    starts = np.arange(cycle)[:, None] * k
    return np.sort((starts + np.arange(k)) % max(n_tx, 1), axis=1)


@dataclass(frozen=True)
class Flow:
    """One scheduled traffic source: terminal `id` transmitting either to its
    serving sector or directly to its peer."""

    id: int
    destination: tuple  # ("sector", index) or ("ue", peer id)

    @property
    def role(self) -> str:
        return "d2d" if self.destination[0] == UE_NODE else "cellular"


def pf_select(
    inst_rate_bps: np.ndarray, avg_rate_bps: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Position of the flow maximizing inst/avg rate in each row of `slots`.

    `slots` is a (sectors x max flows) matrix of flow positions, padded at the
    end of each row with -1. Rows list their flows in id order, so the
    first-occurrence argmax gives ties to the lowest id.
    """
    if slots.size == 0 or np.any(slots[:, 0] < 0):
        raise ValueError("pf_select needs at least one flow per row")
    if np.any(avg_rate_bps <= 0):
        raise ValueError("PF average rates must be positive")
    metric = np.append(inst_rate_bps / avg_rate_bps, -np.inf)  # slot -1 -> -inf
    return slots[np.arange(len(slots)), metric[slots].argmax(axis=1)]


def pf_update(avg_rate_bps: np.ndarray, served_rate_bps: np.ndarray, t_c: int) -> np.ndarray:
    """Exponential moving average step; served rate is 0 when not scheduled."""
    if t_c < 1:
        raise ValueError(f"t_c must be >= 1, got {t_c}")
    return (1.0 - 1.0 / t_c) * avg_rate_bps + served_rate_bps / t_c


@dataclass(frozen=True)
class PfResult:
    throughput_bps: dict[int, float]
    granted_subframes: dict[int, int]


def run_pf_uplink(
    sector_flows: Mapping[int, Sequence[Flow]],
    n_subframes: int,
    rc: RadioConfig,
    pc: PowerControlConfig,
    table: CouplingTable,
    t_c: int = 100,
) -> PfResult:
    """Run the PF loop and return per-flow throughput over n_subframes, keyed
    by flow id in ascending order.

    Each flow's transmit power is fixed up front by open-loop power control
    against its own link coupling, with the noise term taken at its own
    receiver (terminal or base). PF averages start at the flow's
    no-interference rate. Sectors with no flows are skipped.
    """
    if n_subframes < 1:
        raise ValueError(f"n_subframes must be >= 1, got {n_subframes}")
    sectors = sorted(s for s in sector_flows if sector_flows[s])
    # PF state is indexed by position in flow id order; slots lists each
    # sector's positions in ascending order, padded with -1.
    flows = sorted((f for s in sectors for f in sector_flows[s]), key=lambda f: f.id)
    n_flows = len(flows)
    if n_flows == 0:
        return PfResult({}, {})
    pos_of = {f.id: i for i, f in enumerate(flows)}
    rows = [sorted(pos_of[f.id] for f in sector_flows[s]) for s in sectors]
    width = max(len(r) for r in rows)
    slots = np.array([r + [-1] * (width - len(r)) for r in rows])
    sector_of_pos = np.empty(n_flows, dtype=int)
    for si, r in enumerate(rows):
        sector_of_pos[r] = si

    # loss_db[g, f]: loss from flow g's transmitter to flow f's receiver.
    loss_db = table.loss_matrix_db([(ue_endpoint(f.id), f.destination) for f in flows])
    own_loss = loss_db.diagonal()
    noise_dbm = np.array([receiver_noise_dbm(rc, f.destination) for f in flows])
    p_dbm = open_loop_tx_power(replace(pc, noise_dbm=noise_dbm), own_loss)
    p_lin = 10.0 ** (p_dbm / 10.0)
    noise_lin = 10.0 ** (noise_dbm / 10.0)
    signal_lin = p_lin * 10.0 ** (-own_loss / 10.0)
    coupling_lin = p_lin[:, None] * 10.0 ** (-loss_db / 10.0)
    # libm log10 here, numpy's SIMD log10 in the loop: at t=0 both see the
    # same SNRs, and their last-bit differences decide near-tied first grants.
    # Keeping both keeps published outputs byte-stable.
    snr_db = 10.0 * np.array([math.log10(r) for r in (signal_lin / noise_lin).tolist()])
    avg = np.maximum(rate_from_sinr(snr_db, rc.bandwidth_hz, rc), 1.0)

    bits = np.zeros(n_flows)
    grant_count = np.zeros(n_flows, dtype=int)
    interference = np.zeros(n_flows)
    all_pos = np.arange(n_flows)

    for _ in range(n_subframes):
        # Grants use the previous subframe's interference snapshot
        # (noise-only at t=0); service uses the grants concurrent at t.
        est_sinr_db = 10.0 * np.log10(signal_lin / (noise_lin + interference))
        grants = pf_select(rate_from_sinr(est_sinr_db, rc.bandwidth_hz, rc), avg, slots)

        grant_total = coupling_lin[grants].sum(axis=0)
        other = np.maximum(grant_total[grants] - coupling_lin[grants, grants], 0.0)
        sinr_db = 10.0 * np.log10(signal_lin[grants] / (noise_lin[grants] + other))
        served = np.zeros(n_flows)
        served[grants] = rate_from_sinr(sinr_db, rc.bandwidth_hz, rc)
        bits[grants] += served[grants] * SUBFRAME_S
        grant_count[grants] += 1
        avg = pf_update(avg, served, t_c)
        own = coupling_lin[grants[sector_of_pos], all_pos]
        interference = np.maximum(grant_total - own, 0.0)

    ids = [f.id for f in flows]
    duration_s = n_subframes * SUBFRAME_S
    return PfResult(
        throughput_bps=dict(zip(ids, (bits / duration_s).tolist())),
        granted_subframes=dict(zip(ids, grant_count.tolist())),
    )
