"""Current-mode realization of the recurrent cell, and the hardware budget.

The current-mode state update

    tau_h * dI_h/dt = I_z * (1 - I_h / I_htilde)

is the hidden-state dynamics under the exact change of variables
h = I_h / I_unit, I_z = I_unit * z, I_htilde = I_unit * h_cand, so current
mode is the trajectory of ``afua.unroll`` at batch 1 scaled by I_unit.
The classifier head reads the same unroll's final state, so one call gives
both the trajectory and the class probabilities.

The budget calculator turns the chip's fixed array and amplifier counts
into chip area, supply current and power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .afua import IntegrationConfig, NetworkParams, head_batch, unroll
from .errors import ConfigError


@dataclass(frozen=True)
class CurrentTrajectory:
    """Cell currents (nA) after each substep, (substeps, n) arrays, and the
    class probabilities of the final state."""

    I_h: np.ndarray
    I_z: np.ndarray
    I_htilde: np.ndarray
    I_unit: float
    clamped_substeps: int
    probabilities: np.ndarray  # (2,), benign then lesion

    def normalized_h(self) -> np.ndarray:
        """(n_substeps, n_hidden) array of I_h / I_unit."""
        return self.I_h / self.I_unit


def simulate_current_mode(x_sequence, params: NetworkParams, I_unit: float,
                          cfg: IntegrationConfig
                          ) -> CurrentTrajectory:
    """Integrate the current-mode update over a held-input sequence.

    Gates are evaluated from the normalized state I_h/I_unit, mirroring the
    voltage-domain computation; currents falling outside
    [I_unit * epsilon, I_unit * (1 - epsilon)] are clamped and counted.
    The final state with records is bit-equal to the one without, so the
    probabilities are those ``afua.forward_probabilities`` gives.
    """
    if not 0 < I_unit < np.inf:
        raise ConfigError(f"I_unit must be positive and finite, got {I_unit!r}")
    H, clamped, (H_rec, gates, Ht, _) = unroll(
        [x_sequence], params, cfg, keep_records=True)
    # H_rec[k] is the state substep k started from; the trajectory is the
    # state after each substep
    h_after = np.concatenate((H_rec, H[None]))[1:, 0]
    return CurrentTrajectory(
        I_h=I_unit * h_after, I_z=I_unit * gates[:, 0, :params.n_hidden],
        I_htilde=I_unit * Ht[:, 0],
        I_unit=I_unit, clamped_substeps=clamped,
        probabilities=head_batch(H, params)[0][0])


# the fixed array and amplifier counts of the mixed-signal implementation
N_CURRENT_SOURCES = 2592
SOURCE_AREA_MM2 = 0.22 * 0.04  # 220 um x 40 um
ROUTING_FACTOR = 1.315  # calibrated so the chip totals 30 mm^2
N_AMPS = 25
AMP_CURRENT_MA = 0.47
SUPPLY_VOLTAGE_V = 3.3
FRAME_RATE_FPS = 20.0  # informational only


@dataclass(frozen=True)
class BudgetResult:
    chip_area_mm2: float
    array_area_mm2: float  # raw current-source array, before routing
    power_mw: float
    supply_current_ma: float


def hardware_budget() -> BudgetResult:
    """Area from the source array (with routing), power from the amplifiers."""
    array_area = N_CURRENT_SOURCES * SOURCE_AREA_MM2
    chip_area = array_area * ROUTING_FACTOR
    supply = N_AMPS * AMP_CURRENT_MA
    power = supply * SUPPLY_VOLTAGE_V
    return BudgetResult(chip_area_mm2=chip_area, array_area_mm2=array_area,
                        power_mw=power, supply_current_ma=supply)


def budget_table() -> str:
    r = hardware_budget()
    lines = [
        f"{'current sources':<24}{N_CURRENT_SOURCES}",
        f"{'source area (mm^2)':<24}{SOURCE_AREA_MM2:.4f}",
        f"{'array area (mm^2)':<24}{r.array_area_mm2:.2f}",
        f"{'routing factor':<24}{ROUTING_FACTOR:.3f}",
        f"{'chip area (mm^2)':<24}{r.chip_area_mm2:.2f}",
        f"{'amplifiers':<24}{N_AMPS}",
        f"{'amp current (mA)':<24}{AMP_CURRENT_MA:.2f}",
        f"{'supply current (mA)':<24}{r.supply_current_ma:.2f}",
        f"{'supply voltage (V)':<24}{SUPPLY_VOLTAGE_V:.1f}",
        f"{'power (mW)':<24}{r.power_mw:.3f}",
        f"{'frame rate (FPS)':<24}{FRAME_RATE_FPS:.0f}",
    ]
    return "\n".join(lines)
