"""Current-mode realization of the recurrent cell, and the hardware budget.

The current-mode state update

    tau_h * dI_h/dt = I_z * (1 - I_h / I_htilde)

is the hidden-state dynamics under the exact change of variables
h = I_h / I_unit, I_z = I_unit * z, I_htilde = I_unit * h_cand, so current
mode is the trajectory of ``afua.unroll`` at batch 1 scaled by I_unit.

The budget calculator turns the array/amplifier constants into chip area,
supply current, and power; the routing factor is calibrated so the default
constants reproduce the 30 mm^2 total alongside the raw array area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .afua import IntegrationConfig, NetworkParams, unroll
from .errors import ConfigError


@dataclass(frozen=True)
class CurrentTrajectory:
    """Cell currents (nA) after each substep, (substeps, n) arrays."""

    I_h: np.ndarray
    I_z: np.ndarray
    I_htilde: np.ndarray
    I_unit: float
    clamped_substeps: int

    def normalized_h(self) -> np.ndarray:
        """(n_substeps, n_hidden) array of I_h / I_unit."""
        return self.I_h / self.I_unit


def simulate_current_mode(x_sequence, params: NetworkParams, I_unit: float,
                          cfg: IntegrationConfig = IntegrationConfig()
                          ) -> CurrentTrajectory:
    """Integrate the current-mode update over a held-input sequence.

    Gates are evaluated from the normalized state I_h/I_unit, mirroring the
    voltage-domain computation; currents falling outside
    [I_unit * epsilon, I_unit * (1 - epsilon)] are clamped and counted.
    """
    if I_unit <= 0:
        raise ConfigError("I_unit must be positive")
    steps = np.asarray(getattr(x_sequence, "steps", x_sequence), dtype=float)
    H, clamped, (H_rec, gates, Ht, _) = unroll(steps[None], params, cfg,
                                               keep_records=True)
    # H_rec[k] is the state substep k started from; the trajectory is the
    # state after each substep
    h_after = np.concatenate((H_rec, H[None]))[1:, 0]
    return CurrentTrajectory(
        I_h=I_unit * h_after, I_z=I_unit * gates[:, 0, :params.n_hidden],
        I_htilde=I_unit * Ht[:, 0],
        I_unit=I_unit, clamped_substeps=clamped)


@dataclass(frozen=True)
class HardwareBudget:
    """Array and amplifier constants of the mixed-signal implementation."""

    n_current_sources: int = 2592
    source_area_mm2: float = 0.22 * 0.04  # 220 um x 40 um
    routing_factor: float = 1.315
    n_amps: int = 25
    amp_current_ma: float = 0.47
    supply_voltage_v: float = 3.3
    frame_rate_fps: float = 20.0  # informational only

    def __post_init__(self):
        for name in ("n_current_sources", "source_area_mm2", "n_amps",
                     "amp_current_ma", "supply_voltage_v", "frame_rate_fps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.routing_factor < 1.0:
            raise ConfigError("routing_factor must be >= 1")


@dataclass(frozen=True)
class BudgetResult:
    chip_area_mm2: float
    array_area_mm2: float  # raw current-source array, before routing
    power_mw: float
    supply_current_ma: float


def hardware_budget(b: HardwareBudget = HardwareBudget()) -> BudgetResult:
    """Area from the source array (with routing), power from the amplifiers."""
    array_area = b.n_current_sources * b.source_area_mm2
    chip_area = array_area * b.routing_factor
    supply = b.n_amps * b.amp_current_ma
    power = supply * b.supply_voltage_v
    return BudgetResult(chip_area_mm2=chip_area, array_area_mm2=array_area,
                        power_mw=power, supply_current_ma=supply)


def budget_table(b: HardwareBudget = HardwareBudget()) -> str:
    r = hardware_budget(b)
    lines = [
        f"{'current sources':<24}{b.n_current_sources}",
        f"{'source area (mm^2)':<24}{b.source_area_mm2:.4f}",
        f"{'array area (mm^2)':<24}{r.array_area_mm2:.2f}",
        f"{'routing factor':<24}{b.routing_factor:.3f}",
        f"{'chip area (mm^2)':<24}{r.chip_area_mm2:.2f}",
        f"{'amplifiers':<24}{b.n_amps}",
        f"{'amp current (mA)':<24}{b.amp_current_ma:.2f}",
        f"{'supply current (mA)':<24}{r.supply_current_ma:.2f}",
        f"{'supply voltage (V)':<24}{b.supply_voltage_v:.1f}",
        f"{'power (mW)':<24}{r.power_mw:.3f}",
        f"{'frame rate (FPS)':<24}{b.frame_rate_fps:.0f}",
    ]
    return "\n".join(lines)
