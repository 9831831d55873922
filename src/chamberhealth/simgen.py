"""Synthetic pumpdown generator and closed-form physics oracle.

Stands in for a proprietary production dataset. The chamber is pumped
in two stages: a backing pump takes it from atmosphere down to the
crossover pressure as a pure exponential with time constant
``tau_stage1``; from there a turbopump pulls an exponential toward an
outgassing-limited floor

    p_ss(c) = q0 + q_per_unit * c  (+ optional seasonal drift)

so accumulated wall contamination ``c`` slows evacuation most near the
floor. The linearity of p_ss in c is an assumption of this generator,
not an established physical law. Each gauge reads the true pressure
under multiplicative log-normal noise of its own ``SensorSpec.noise_sigma``,
and each run's recipe is drawn in proportion to its ``RecipeSpec.share``:
both inputs are declared with the gauge or recipe they belong to. Every
run also records the noiseless truth so downstream derivations can be
checked against the closed form.

Determinism: a (config, seed) pair fully determines the dataset. Assets
draw from independent seeded substreams, so per-asset generation could
run concurrently without changing a single byte of output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .core import RunRecord, SegmentSpec, SensorSpec, check_sensor_priorities
from .errors import ConfigError, DataError

SECONDS_PER_YEAR = 365.0 * 86400.0


def default_sensors() -> tuple[SensorSpec, ...]:
    """Four-gauge cascade covering 1e-6..1.2e3 mbar with overlaps.

    s2 is the precise mid-range gauge (it measures both health-index
    segment bounds); the high-vacuum gauges s3/s4 are markedly noisier,
    as cold-cathode style gauges tend to be.
    """
    return (
        SensorSpec("s1", (5e-1, 2.0e3), priority=4, noise_sigma=0.05),
        SensorSpec("s2", (1e-3, 5.0), priority=1, noise_sigma=0.0005),
        SensorSpec("s3", (1.2e-4, 1.5e-3), priority=2, noise_sigma=0.05),
        SensorSpec("s4", (1e-6, 1.5e-3), priority=3, noise_sigma=0.30),
    )


def default_segments() -> tuple[SegmentSpec, ...]:
    """Default pressure intervals in mbar.

    dp1 ends where the turbopump engages; dp2 is the low-pressure
    interval that carries the contamination signal. dp3..dp5 bounds are
    this artifact's own defaults. Overlaps/gaps between segments are
    allowed because every duration is measured from crossings
    independently.
    """
    return (
        SegmentSpec(1, 1013.0, 0.02),
        SegmentSpec(2, 0.03, 0.002),
        SegmentSpec(3, 0.002, 5e-4),
        SegmentSpec(4, 5e-4, 2e-4),
        SegmentSpec(5, 2e-4, 1e-4),
    )


@dataclass(frozen=True)
class RecipeSpec:
    """A product recipe: how much contamination a run deposits, how it
    scales the non-pumpdown process time, and its share of the production
    schedule (weights relative to the other recipes; equal shares draw
    uniformly)."""

    recipe_id: str
    deposition_weight: float
    duration_scale: float = 1.0
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.recipe_id or "|" in self.recipe_id:  # "|" joins a plan's recipes in meta.csv
            raise ConfigError(f"recipe {self.recipe_id!r}: an id must be non-empty, without '|'")
        if self.deposition_weight < 0:
            raise ConfigError(f"recipe {self.recipe_id}: deposition_weight must be >= 0")
        if self.duration_scale <= 0:
            raise ConfigError(f"recipe {self.recipe_id}: duration_scale must be > 0")


def default_recipes() -> tuple[RecipeSpec, ...]:
    return (
        RecipeSpec("std", deposition_weight=0.8, duration_scale=1.0, share=0.5),
        RecipeSpec("light", deposition_weight=0.0, duration_scale=0.85, share=0.3),
        RecipeSpec("heavy", deposition_weight=2.4, duration_scale=1.25, share=0.2),
    )


@dataclass(frozen=True)
class ChamberState:
    """Latent chamber condition between runs.

    ``weather`` is a slow ambient offset on the outgassing floor in
    mbar (humidity/temperature fronts); unlike contamination it is not
    reset by maintenance and is not directly measurable.
    """

    contamination: float = 0.0
    n_runs: int = 0
    seasonal_phase: float = 0.0
    weather: float = 0.0


@dataclass(frozen=True)
class ChamberConfig:
    """Physics, sensor and sampling parameters of one chamber model."""

    tau_stage1: float = 2.5
    tau_stage2: float = 4.0
    crossover_pressure: float = 0.02
    p_atm: float = 1013.0
    base_outgassing_q0: float = 4.0e-6
    outgassing_per_unit: float = 4.8e-7
    target_pressure: float = 9.5e-5
    sample_dt: float = 0.5
    tail_samples: int = 4
    max_samples: int = 200_000
    sensors: tuple[SensorSpec, ...] = field(default_factory=default_sensors)
    # additive drift on p_ss: amplitude * sin(2*pi*phase + pi), one
    # period per year, rising over the late-year months
    seasonal_amplitude: float = 1.2e-5
    seasonal_period_s: float = SECONDS_PER_YEAR
    # slow AR(1) ambient wander on p_ss (stationary sigma in mbar,
    # per-run correlation); persists across maintenance
    weather_sigma: float = 3.0e-6
    weather_rho: float = 0.99
    maintenance_residual: float = 0.0
    # production timeline
    time_origin: float = 1.6e9
    run_interval_s: float = 78840.0
    # extra process channels
    temp_base_c: float = 21.0
    temp_seasonal_amplitude: float = 3.0
    temp_run_noise: float = 2.5
    temp_sample_noise: float = 0.1
    flow_base: float = 12.0
    flow_per_weight: float = 3.0
    flow_run_noise: float = 0.3
    flow_sample_noise: float = 0.2

    def __post_init__(self) -> None:
        """Cross-field checks; each field's own range is declared in config."""
        if not (0 < self.target_pressure < self.crossover_pressure < self.p_atm):
            raise ConfigError(
                "need 0 < target_pressure < crossover_pressure < p_atm, got "
                f"({self.target_pressure}, {self.crossover_pressure}, {self.p_atm})"
            )
        check_sensor_priorities(self.sensors)

    def steady_state_pressure(
        self, contamination: float, phase: float = 0.0, weather: float = 0.0
    ) -> float:
        """Outgassing floor p_ss(c) in mbar, clamped at >= 0, at a given
        fraction ``phase`` of the year."""
        p_ss = (
            self.base_outgassing_q0
            + self.outgassing_per_unit * contamination
            + self.seasonal_amplitude * math.sin(2.0 * math.pi * phase + math.pi)
            + weather
        )
        return max(p_ss, 0.0)


def closed_form_segment_duration(p_a: float, p_b: float, tau: float, p_ss: float) -> float:
    """Time for an exponential pumpdown with floor p_ss to go p_a -> p_b.

        t = tau * ln((p_a - p_ss) / (p_b - p_ss))

    Strictly increasing in p_ss for fixed bounds. Raises
    DataError when the pump can never reach p_b.
    """
    if tau <= 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    if p_ss < 0 or not p_a > p_b:
        raise ConfigError(f"need p_a > p_b and p_ss >= 0, got ({p_a}, {p_b}, {p_ss})")
    if p_b <= p_ss:
        raise DataError(
            f"target {p_b} mbar is at or below the steady-state floor {p_ss} mbar"
        )
    return tau * math.log((p_a - p_ss) / (p_b - p_ss))


def true_time_to_pressure(pressure: float, config: ChamberConfig, p_ss: float) -> float:
    """Time since run start at which the noiseless curve reaches a pressure.

    Piecewise composition of the closed form over the two pump stages;
    a pressure at or above atmosphere maps to t = 0.
    """
    if pressure >= config.p_atm:
        return 0.0
    if pressure >= config.crossover_pressure:
        return closed_form_segment_duration(config.p_atm, pressure, config.tau_stage1, 0.0)
    t_cross = closed_form_segment_duration(
        config.p_atm, config.crossover_pressure, config.tau_stage1, 0.0
    )
    return t_cross + closed_form_segment_duration(
        config.crossover_pressure, pressure, config.tau_stage2, p_ss
    )


def true_segment_duration(segment: SegmentSpec, config: ChamberConfig, p_ss: float) -> float:
    """Noiseless duration of one pressure interval, via the closed form."""
    return true_time_to_pressure(segment.lower, config, p_ss) - true_time_to_pressure(
        segment.upper, config, p_ss
    )


def true_pressure_curve(t: np.ndarray, config: ChamberConfig, p_ss: float) -> np.ndarray:
    """Noiseless pressure at each sample time of the two-stage pumpdown."""
    t_cross = true_time_to_pressure(config.crossover_pressure, config, p_ss)
    stage1 = config.p_atm * np.exp(-t / config.tau_stage1)
    stage2 = p_ss + (config.crossover_pressure - p_ss) * np.exp(
        -(t - t_cross) / config.tau_stage2
    )
    return np.where(t < t_cross, stage1, stage2)


def advance_contamination(
    state: ChamberState,
    recipe: RecipeSpec,
    maintenance_due: bool,
    residual: float,
) -> ChamberState:
    """State transition after one production run.

    Maintenance wipes contamination down to the configured residual and
    resets the run counter; otherwise the run's deposition accumulates.
    """
    if maintenance_due:
        return replace(state, contamination=residual, n_runs=0)
    return replace(
        state,
        contamination=state.contamination + recipe.deposition_weight,
        n_runs=state.n_runs + 1,
    )


def simulate_run(
    state: ChamberState,
    recipe: RecipeSpec,
    config: ChamberConfig,
    rng: np.random.Generator,
    run_id: str,
    asset_id: str,
    start_time: float,
) -> RunRecord:
    """Simulate one pumpdown and return its RunRecord.

    The noiseless curve is sampled every ``sample_dt`` seconds until it
    reaches ``target_pressure``, plus a short hold so the floor region
    is observable; gauge readings are the true pressure under
    per-sensor multiplicative log-normal noise, marked invalid outside
    each gauge's range. Ground truth (contamination, floor) is attached
    for ``ground_truth.csv``; ``true_pressure_curve(run.t, config,
    run.true_p_ss)`` recomputes the noiseless curve. Deterministic given
    the state of ``rng``, which it advances.
    """
    p_ss = config.steady_state_pressure(
        state.contamination, state.seasonal_phase, state.weather
    )
    if config.target_pressure <= p_ss:
        raise ConfigError(
            f"target pressure {config.target_pressure} mbar unreachable: floor is {p_ss} mbar"
        )
    t_target = true_time_to_pressure(config.target_pressure, config, p_ss)
    n_pump = int(math.ceil(t_target / config.sample_dt)) + 1
    n_samples = n_pump + config.tail_samples
    if n_samples > config.max_samples:
        raise ConfigError(f"run would exceed max_samples ({n_samples} > {config.max_samples})")

    t = np.arange(n_samples, dtype=np.float64) * config.sample_dt
    truth = true_pressure_curve(t, config, p_ss)

    z = rng.standard_normal((n_samples, len(config.sensors)))
    readings = np.empty_like(z)
    try:
        with np.errstate(over="raise"):
            for j, spec in enumerate(config.sensors):
                col = truth * np.exp(spec.noise_sigma * z[:, j])
                lo, hi = spec.valid_range
                col[(col < lo) | (col > hi)] = np.nan
                readings[:, j] = col
    except FloatingPointError:
        raise ConfigError(
            f"sensor {spec.sensor_id}: noise_sigma {spec.noise_sigma!r} overflows a reading"
        ) from None

    temp_level = (
        config.temp_base_c
        + config.temp_seasonal_amplitude * math.sin(2.0 * math.pi * state.seasonal_phase + math.pi)
        + config.temp_run_noise * rng.standard_normal()
    )
    temp = temp_level + config.temp_sample_noise * rng.standard_normal(n_samples)
    flow_level = (
        config.flow_base
        + config.flow_per_weight * recipe.deposition_weight
        + config.flow_run_noise * rng.standard_normal()
    )
    flow = flow_level + config.flow_sample_noise * rng.standard_normal(n_samples)

    return RunRecord(
        run_id=run_id,
        asset_id=asset_id,
        start_time=float(start_time),
        recipe_id=recipe.recipe_id,
        n_runs=state.n_runs,
        t=t,
        readings=readings,
        extra_channels={"temp_c": temp, "gas_flow": flow},
        true_c=state.contamination,
        true_p_ss=p_ss,
    )


def recipe_probabilities(recipes: Sequence[RecipeSpec]) -> np.ndarray:
    """Each recipe's share of the schedule, normalized, in ``recipes``
    order. Refuses duplicate recipe ids, and shares that sum to 0 or
    past the largest float, which would normalize to no distribution."""
    if len({r.recipe_id for r in recipes}) != len(recipes):
        raise ConfigError("recipe ids must be unique")
    probs = np.array([float(r.share) for r in recipes])
    with np.errstate(over="ignore"):  # refused below
        total = probs.sum()
    if total <= 0:
        raise ConfigError("recipe probabilities must sum > 0")
    if total == np.inf:
        raise ConfigError("recipe shares must sum to a finite number")
    return probs / total


def simulate_history(
    config: ChamberConfig,
    recipes: Sequence[RecipeSpec],
    n_assets: int,
    n_runs_total: int,
    cycle_length: int,
    seed: int,
) -> Iterator[RunRecord]:
    """Generate a multi-asset production history, yielding its runs one
    at a time in file order, (asset_id, start_time).

    ``n_runs_total`` runs are spread as evenly as possible over
    ``n_assets`` assets; each asset is cleaned every ``cycle_length``
    runs. Recipes are drawn per run in proportion to their ``share`` by a
    dedicated schedule stream, for every asset first; then each asset's
    runs are generated in order from its own seeded substream, the
    assets in sorted asset_id order (``asset10`` before ``asset2``). A
    caller that needs the runs twice keeps them
    (``tuple(simulate_history(...))``).
    """
    probs = recipe_probabilities(recipes)

    base, extra = divmod(n_runs_total, n_assets)
    counts = [base + (1 if a < extra else 0) for a in range(n_assets)]
    asset_ids = [f"asset{a + 1}" for a in range(n_assets)]

    schedule_rng = np.random.default_rng(np.random.SeedSequence((seed, 90001)))
    schedule = [schedule_rng.choice(len(recipes), size=count, p=probs) for count in counts]

    sigma_w = config.weather_sigma
    rho = config.weather_rho
    step_w = sigma_w * math.sqrt(1.0 - rho * rho)
    for a_idx in sorted(range(n_assets), key=asset_ids.__getitem__):
        asset_id, draws = asset_ids[a_idx], schedule[a_idx]
        rng = np.random.default_rng(np.random.SeedSequence((seed, a_idx)))
        state = ChamberState(contamination=config.maintenance_residual, n_runs=0)
        start = config.time_origin + a_idx * config.run_interval_s / n_assets
        weather = sigma_w * float(rng.standard_normal()) if sigma_w > 0 else 0.0
        for pos, draw in enumerate(draws):
            if sigma_w > 0 and pos > 0:
                weather = rho * weather + step_w * float(rng.standard_normal())
            # clamp keeps the floor safely below the pumpdown target
            weather = min(max(weather, -3.0 * sigma_w), 3.0 * sigma_w)
            recipe = recipes[int(draw)]
            phase = ((start - config.time_origin) % config.seasonal_period_s) / config.seasonal_period_s
            state = replace(state, seasonal_phase=phase, weather=weather)
            yield simulate_run(
                state,
                recipe,
                config,
                rng,
                run_id=f"{asset_id}-{pos:05d}",
                asset_id=asset_id,
                start_time=start,
            )
            maintenance_due = (pos + 1) % cycle_length == 0
            state = advance_contamination(
                state, recipe, maintenance_due, residual=config.maintenance_residual
            )
            start += config.run_interval_s * recipe.duration_scale
