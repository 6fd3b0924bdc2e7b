"""Speed calibration for the end-to-end times.

On the shared 2-vCPU machine this benchmark was built on, the speed one
process gets drifts by 20-50% over tens of seconds, and every workload slows
down together. Run-to-run quartile spreads of raw medians reached 26% for
`wall_s` and 48% for `setup_s` over ten seeds. A timing is therefore scaled
by how fast the machine was while it ran, measured by a fixed reference
right next to it:

- a repetition by the time of `kernel_s`, taken before and after it;
- a set-up probe by the time of a fresh interpreter that only imports numpy,
  started just before it.

Scaled value = raw value × reference time / measured time, i.e. the time the
repetition would take when the reference takes its nominal time. Neither
reference runs d2dsim code, so a change to d2dsim moves the scaled values as
much as the raw ones. Raw values are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal times of the references on the 2-vCPU reference machine; they only
# fix the scale of the reported values.
KERNEL_REFERENCE_S = 0.1
NUMPY_IMPORT_REFERENCE_S = 0.2


def kernel_s() -> float:
    """Seconds for a fixed mix of the work d2dsim does: a broadcast distance
    over 7 wrap images (layout, channel) and a scalar PF-style loop over small
    numpy rows (scheduling)."""
    rng = np.random.default_rng(0)
    xy = rng.uniform(-1000.0, 1000.0, size=(400, 2))
    offsets = rng.uniform(-3000.0, 3000.0, size=(7, 2))
    start = time.perf_counter()
    best = None
    for dx, dy in offsets:
        d = np.hypot(xy[:, None, 0] - xy[None, :, 0] - dx, xy[:, None, 1] - xy[None, :, 1] - dy)
        best = d if best is None else np.minimum(best, d)
    rates = np.log2(1.0 + best[:20, :20])
    avg = [1.0] * 20
    for t in range(6000):
        row = rates[t % 20]
        pick = max(range(20), key=lambda i: row[i] / avg[i])
        for i in range(20):
            avg[i] = 0.99 * avg[i] + (0.01 * float(row[i]) if i == pick else 0.0)
    return time.perf_counter() - start
