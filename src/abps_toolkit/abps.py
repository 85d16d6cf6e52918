"""The two multi-NIC switching models: parameters, builders, metrics, sweeps.

Both variants compose three interacting chains: a UMTS interface, a WiFi
interface (each cycling disconnected -> setup -> connected -> failed), and a
three-state coverage oracle. In the *plain* variant both interfaces stay
powered and the oracle only modulates the WiFi connection-holding rate; in
the *oracle* variant the oracle's transitions additionally switch whole
interfaces off and on through synchronized actions.

Two builder modes exist:

- ``text`` (default): when both interfaces are connected only WiFi carries
  traffic, so the idle UMTS interface is charged
  ``idle_connected_fraction`` of its connected-state power.
- ``appendix``: bit-for-bit compatible with the reference listings bundled
  under ``models/`` (full per-state energy draws, WiFi setup success rate
  ``beta_W * p_U`` and oracle reactivation rate 30 exactly as written
  there).
"""

from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from abps_toolkit import modlang
from abps_toolkit.ctmc import (
    RewardVector,
    StationaryDistribution,
    StructureError,
    ValidationError,
    expected_reward,
    steady_state,
    steady_state_probability,
)
from abps_toolkit.modlang import (
    Bool,
    Branch,
    Command,
    ComposedChain,
    Cond,
    Ident,
    ModelSpec,
    ModuleSpec,
    Num,
    Update,
    Variable,
    compose,
)

#: Interface phases in their numeric encoding order (0..4).
NIC_PHASES = ("off", "disconnected", "setup", "connected", "failed")
PHASE_OFF, PHASE_DISCONNECTED, PHASE_SETUP, PHASE_CONNECTED, PHASE_FAILED = range(5)

#: Oracle states: UMTS only / both interfaces / WiFi only.
ORACLE_U, ORACLE_UW, ORACLE_W = 1, 2, 3

VARIANTS = ("plain", "oracle")
MODES = ("text", "appendix")

#: Per-state power draw in Watts (row: interface, column: phase).
DEFAULT_ENERGY: dict[str, dict[str, float]] = {
    "UMTS": {"off": 0.0, "disconnected": 0.12, "setup": 0.31, "connected": 0.62, "failed": 0.25},
    "WiFi": {"off": 0.0, "disconnected": 0.08, "setup": 0.19, "connected": 0.38, "failed": 0.15},
}

#: The reference listings hardcode the oracle reactivation rate as a bare 30
#: (a rate, i.e. 33 ms mean dwell); the corrected default is 1/30 (30 s dwell).
APPENDIX_LAMBDA_U_UW = 30.0


@dataclass(frozen=True)
class AbpsParams:
    """Every rate (1/s), probability, power (W) and throughput (Mbps) constant.

    ``lambda_UW_U``, ``lambda_UW_W`` and ``lambda_W_UW`` default to the
    residence-time construction (half the short-window rate for both exits
    of the dual state, the long-window rate for leaving WiFi-only), so the
    oracle dwells ``T_W_minus`` seconds in its dual state and ``T_W_plus``
    in WiFi-only; pass explicit values to decouple them.
    """

    alpha_U: float = 1 / 6.024
    beta_U: float = 1 / 1.5
    gamma_U: float = 1 / 600
    mu_U: float = 1.0
    p_U: float = 0.99
    alpha_W: float = 1 / 7.5
    beta_W: float = 1 / 1.5
    mu_W: float = 1.0
    p_W: float = 0.9
    T_W_plus: float = 80.0
    T_W_minus: float = 20.0
    lambda_U_UW: float = 1 / 30
    lambda_UW_U: float | None = None
    lambda_UW_W: float | None = None
    lambda_W_UW: float | None = None
    e: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: copy.deepcopy(DEFAULT_ENERGY)
    )
    tput_U: float = 0.2
    tput_W: float = 26.0
    oracle_baseline_power: float = 0.1
    idle_connected_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not (self.T_W_minus > 0.0 and self.T_W_plus >= self.T_W_minus):
            raise ValidationError(
                f"need T_W_plus >= T_W_minus > 0, got {self.T_W_plus}, {self.T_W_minus}"
            )
        if self.lambda_UW_U is None:
            object.__setattr__(self, "lambda_UW_U", 0.5 * self.gamma_W_minus)
        if self.lambda_UW_W is None:
            object.__setattr__(self, "lambda_UW_W", 0.5 * self.gamma_W_minus)
        if self.lambda_W_UW is None:
            object.__setattr__(self, "lambda_W_UW", self.gamma_W_plus)
        for name in (
            "alpha_U", "beta_U", "gamma_U", "mu_U", "alpha_W", "beta_W", "mu_W",
            "lambda_U_UW", "lambda_UW_U", "lambda_UW_W", "lambda_W_UW",
        ):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"rate {name} must be positive and finite, got {value!r}")
        for name in ("p_U", "p_W"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValidationError(f"probability {name} must be in (0, 1], got {value!r}")
        if not (0.0 <= self.idle_connected_fraction <= 1.0):
            raise ValidationError("idle_connected_fraction must be in [0, 1]")
        if self.oracle_baseline_power < 0.0 or self.tput_U < 0.0 or self.tput_W < 0.0:
            raise ValidationError("powers and throughputs must be nonnegative")
        if set(self.e) != {"UMTS", "WiFi"}:
            raise ValidationError("energy table needs exactly the UMTS and WiFi rows")
        for nic, row in self.e.items():
            if set(row) != set(NIC_PHASES):
                raise ValidationError(f"energy row {nic!r} must cover phases {NIC_PHASES}")
            if any(v < 0.0 for v in row.values()):
                raise ValidationError(f"energy row {nic!r} has a negative entry")
            if row["off"] != 0.0:
                raise ValidationError(f"energy of the off phase must be 0, got {row['off']!r}")

    @property
    def gamma_W_plus(self) -> float:
        return 1.0 / self.T_W_plus

    @property
    def gamma_W_minus(self) -> float:
        return 1.0 / self.T_W_minus

    def with_windows(self, T_W_minus: float, T_W_plus: float) -> "AbpsParams":
        """New params for other WiFi windows, re-deriving the oracle rates."""
        return replace(
            self,
            T_W_minus=T_W_minus,
            T_W_plus=T_W_plus,
            lambda_UW_U=None,
            lambda_UW_W=None,
            lambda_W_UW=None,
        )


def default_params(**overrides) -> AbpsParams:
    """The empirically grounded defaults; keyword overrides as needed."""
    return AbpsParams(**overrides)


_SCALAR_FIELDS = {
    f for f in AbpsParams.__dataclass_fields__ if f != "e"
}


def params_from_mapping(entries: Mapping[str, float], base: AbpsParams | None = None) -> AbpsParams:
    """Apply flat ``key=value`` overrides (``e.<NIC>.<phase>`` for energy)."""
    base = base or default_params()
    scalars: dict[str, float] = {}
    energy = copy.deepcopy({k: dict(v) for k, v in base.e.items()})
    touched_energy = False
    for key, value in entries.items():
        if key in _SCALAR_FIELDS:
            scalars[key] = float(value)
        elif key.startswith("e."):
            try:
                _, nic, phase = key.split(".")
                energy[nic][phase]  # raises KeyError for bad coordinates
            except (ValueError, KeyError):
                raise ValidationError(f"unknown energy entry {key!r}")
            energy[nic][phase] = float(value)
            touched_energy = True
        else:
            raise ValidationError(f"unknown parameter {key!r}")
    kwargs = {f: getattr(base, f) for f in _SCALAR_FIELDS}
    kwargs.update(scalars)
    # re-derive oracle rates when windows move and the rates were not pinned
    if ("T_W_minus" in scalars or "T_W_plus" in scalars):
        for lam in ("lambda_UW_U", "lambda_UW_W", "lambda_W_UW"):
            if lam not in scalars:
                kwargs[lam] = None
    return AbpsParams(e=energy if touched_energy else base.e, **kwargs)


def load_params(path, base: AbpsParams | None = None) -> AbpsParams:
    """Read a flat ``key = value`` configuration file (# starts a comment)."""
    entries: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                entries[key] = float(value)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric value {value!r}")
    return params_from_mapping(entries, base)


def reference_model_path(variant: str) -> Path:
    """Path of the bundled reference listing for ``plain`` or ``oracle``."""
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return Path(str(resources.files("abps_toolkit") / "models" / f"abps-{variant}.sm"))


# --------------------------------------------------------------------------
# Chain builders


@dataclass(frozen=True)
class AbpsModel:
    """A composed chain plus the parameters and mode that produced it.

    ``spec`` is the variant's one module set, shared by every mode and
    parameter set: its rates are the parameters named in
    :func:`resolved_rates`, bound when the chain is composed. It has no
    reward blocks: the chain's ``energy`` and ``throughput`` vectors are
    tabulated state by state from :func:`state_power` and
    :func:`state_throughput`, the same functions the event simulator
    integrates.
    """

    variant: str
    mode: str
    params: AbpsParams
    spec: ModelSpec
    chain: ComposedChain


def _check_variant_mode(variant: str, mode: str) -> None:
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")


def resolved_rates(params: AbpsParams, mode: str) -> dict[str, float]:
    """Concrete transition rates for a variant-independent module set.

    This is the one place the ``appendix`` listing quirks are applied, so
    the analytic builders and the event simulator always agree on them.
    """
    appendix = mode == "appendix"
    return {
        "alpha_U": params.alpha_U,
        "umts_setup_success": params.beta_U * params.p_U,
        "umts_setup_fail": params.beta_U * (1.0 - params.p_U),
        "gamma_U": params.gamma_U,
        "mu_U": params.mu_U,
        "alpha_W": params.alpha_W,
        "wifi_setup_success": params.beta_W * (params.p_U if appendix else params.p_W),
        "wifi_setup_fail": params.beta_W * (1.0 - params.p_W),
        "gamma_W_plus": params.gamma_W_plus,
        "gamma_W_minus": params.gamma_W_minus,
        "mu_W": params.mu_W,
        "lambda_U_UW": APPENDIX_LAMBDA_U_UW if appendix else params.lambda_U_UW,
        "lambda_UW_U": params.lambda_UW_U,
        "lambda_UW_W": params.lambda_UW_W,
        "lambda_W_UW": params.lambda_W_UW,
    }


def _eq(var: str, value: int) -> modlang.Binary:
    return modlang.Binary("=", Ident(var), Num(float(value)))


def _go(var: str, value: int, rate: str | None) -> Branch:
    return Branch(None if rate is None else Ident(rate), (Update(var, Num(float(value))),))


def _nic_module(name: str, var: str, nic: str, *, with_off: bool, gamma) -> ModuleSpec:
    low = 0 if with_off else 1
    commands = [
        Command(None, _eq(var, 1), (_go(var, 2, f"alpha_{nic}"),)),
        Command(None, _eq(var, 2), (_go(var, 3, f"{name}_setup_success"),
                                    _go(var, 1, f"{name}_setup_fail"))),
        Command(None, _eq(var, 3), (Branch(gamma, (Update(var, Num(4.0)),)),)),
        Command(None, _eq(var, 4), (_go(var, 1, f"mu_{nic}"),)),
    ]
    if with_off:
        prefix = name  # umts_0/umts_1, wifi_0/wifi_1
        commands.append(Command(f"{prefix}_0", Bool(True), (_go(var, 0, None),)))
        commands.append(Command(f"{prefix}_1", _eq(var, 0), (_go(var, 1, None),)))
    return ModuleSpec(name, (Variable(var, low, 4, 1),), tuple(commands))


def _oracle_module(*, synchronized: bool) -> ModuleSpec:
    def lbl(label: str) -> str | None:
        return label if synchronized else None

    commands = (
        Command(lbl("wifi_1"), _eq("s_oracle", 1), (_go("s_oracle", 2, "lambda_U_UW"),)),
        Command(lbl("wifi_0"), _eq("s_oracle", 2), (_go("s_oracle", 1, "lambda_UW_U"),)),
        Command(lbl("umts_0"), _eq("s_oracle", 2), (_go("s_oracle", 3, "lambda_UW_W"),)),
        Command(lbl("umts_1"), _eq("s_oracle", 3), (_go("s_oracle", 2, "lambda_W_UW"),)),
    )
    return ModuleSpec("oracle", (Variable("s_oracle", 1, 3, 2),), commands)


def _spec(variant: str) -> ModelSpec:
    """The variant's modules; every rate is a parameter named as in
    :func:`resolved_rates`, so one spec serves every mode and point."""
    with_off = variant == "oracle"
    gamma_w = Cond(_eq("s_oracle", 3), Ident("gamma_W_plus"), Ident("gamma_W_minus"))
    umts = _nic_module("umts", "s_U", "U", with_off=with_off, gamma=Ident("gamma_U"))
    wifi = _nic_module("wifi", "s_W", "W", with_off=with_off, gamma=gamma_w)
    oracle = _oracle_module(synchronized=with_off)
    return ModelSpec(
        kind="ctmc",
        constants={name: None for name in resolved_rates(default_params(), "text")},
        formulas={},
        modules=(umts, wifi, oracle),
        rewards={},
    )


#: One spec per variant for the whole process, so ``compose`` walks each
#: chain once and every later point replays the walk, evaluating its rates.
_SPECS = {variant: _spec(variant) for variant in VARIANTS}


def _build(params: AbpsParams, variant: str, mode: str) -> AbpsModel:
    _check_variant_mode(variant, mode)
    spec = _SPECS[variant]
    chain = compose(spec, resolved_rates(params, mode))
    u = chain.var_names.index("s_U")
    w = chain.var_names.index("s_W")
    energy = np.array([state_power(s[u], s[w], params, mode, variant) for s in chain.states])
    throughput = np.array([state_throughput(s[u], s[w], params) for s in chain.states])
    energy.flags.writeable = False
    throughput.flags.writeable = False
    chain = replace(chain, rewards={"energy": energy, "throughput": throughput})
    return AbpsModel(variant, mode, params, spec, chain)


def build_plain(params: AbpsParams, mode: str = "text") -> AbpsModel:
    """Both interfaces always powered; the oracle only modulates gamma_W."""
    return _build(params, "plain", mode)


def build_oracle(params: AbpsParams, mode: str = "text") -> AbpsModel:
    """Full model with off states and synchronized switch-off/on actions."""
    return _build(params, "oracle", mode)


def build(variant: str, params: AbpsParams, mode: str = "text") -> AbpsModel:
    return _build(params, variant, mode)


# --------------------------------------------------------------------------
# Shared per-state metric definitions: the only statement of the availability,
# energy and throughput rules. The chain's builders and metrics read them, and
# the event simulator integrates them over simulated time.


def state_available(s_u: int, s_w: int) -> bool:
    """Availability of a composite interface state: at least one is connected."""
    return s_u == PHASE_CONNECTED or s_w == PHASE_CONNECTED


def state_power(s_u: int, s_w: int, params: AbpsParams, mode: str, variant: str) -> float:
    """Instantaneous power draw (W) of a composite interface state."""
    e_u = params.e["UMTS"][NIC_PHASES[s_u]]
    e_w = params.e["WiFi"][NIC_PHASES[s_w]]
    if mode == "text" and s_u == PHASE_CONNECTED and s_w == PHASE_CONNECTED:
        e_u *= params.idle_connected_fraction
    baseline = params.oracle_baseline_power if variant == "oracle" else 0.0
    return baseline + e_u + e_w


def state_throughput(s_u: int, s_w: int, params: AbpsParams) -> float:
    """Offered throughput (Mbps): WiFi when connected, else UMTS, else 0."""
    if s_w == PHASE_CONNECTED:
        return params.tput_W
    if s_u == PHASE_CONNECTED:
        return params.tput_U
    return 0.0


# --------------------------------------------------------------------------
# Metric evaluation


@dataclass(frozen=True)
class MetricsResult:
    """Stationary availability, power and throughput of one solved model."""

    availability: float
    power_w: float
    throughput_mbps: float
    distribution: StationaryDistribution


def connected_predicate(chain: ComposedChain):
    """State-index predicate: at least one interface is connected."""
    u = chain.var_names.index("s_U")
    w = chain.var_names.index("s_W")
    states = chain.states
    return lambda i: state_available(states[i][u], states[i][w])


def evaluate_chain(chain: ComposedChain) -> MetricsResult:
    """Solve a composed chain and read the three standard metrics off it.

    The chain must expose ``s_U``/``s_W`` variables and ``energy`` and
    ``throughput`` reward structures.
    """
    for var in ("s_U", "s_W"):
        if var not in chain.var_names:
            raise ValidationError(f"chain lacks the {var!r} variable needed for availability")
    for rname in ("energy", "throughput"):
        if rname not in chain.rewards:
            raise ValidationError(f"chain lacks the {rname!r} reward structure")
    dist = steady_state(chain.generator, chain.initial)
    availability = steady_state_probability(dist, connected_predicate(chain))
    power = expected_reward(dist, RewardVector(chain.rewards["energy"], units="W"))
    throughput = expected_reward(dist, RewardVector(chain.rewards["throughput"], units="Mbps"))
    return MetricsResult(availability, power, throughput, dist)


def evaluate(model: AbpsModel) -> MetricsResult:
    return evaluate_chain(model.chain)


# --------------------------------------------------------------------------
# Parameter sweeps


DEFAULT_T_MINUS_GRID = (5.0, 10.0, 20.0, 40.0)
DEFAULT_T_PLUS_GRID = (40.0, 80.0, 120.0)

CSV_HEADER = ("variant", "T_W_minus", "T_W_plus", "availability", "power_W", "throughput_Mbps")


@dataclass(frozen=True)
class SweepRow:
    variant: str
    T_W_minus: float
    T_W_plus: float
    metrics: MetricsResult | None
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    """Metrics per (variant, window pair); failed points carry error text."""

    rows: tuple[SweepRow, ...]
    mode: str

    def result(self, variant: str, t_minus: float, t_plus: float) -> MetricsResult:
        for row in self.rows:
            if (row.variant, row.T_W_minus, row.T_W_plus) == (variant, t_minus, t_plus):
                if row.metrics is None:
                    raise ValidationError(f"grid point failed: {row.error}")
                return row.metrics
        raise ValidationError(f"no such grid point: {variant}, {t_minus}, {t_plus}")

    def to_csv(self) -> str:
        """Render as CSV; an ``error`` column is appended only when needed."""
        with_errors = any(row.error for row in self.rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER + (("error",) if with_errors else ()))
        for row in self.rows:
            cells = [row.variant, _fmt(row.T_W_minus), _fmt(row.T_W_plus)]
            if row.metrics is None:
                cells += ["", "", ""]
            else:
                cells += [
                    _fmt(row.metrics.availability),
                    _fmt(row.metrics.power_w),
                    _fmt(row.metrics.throughput_mbps),
                ]
            if with_errors:
                cells.append(row.error or "")
            writer.writerow(cells)
        return buf.getvalue()

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def sweep(
    params: AbpsParams,
    t_minus_values: Sequence[float] = DEFAULT_T_MINUS_GRID,
    t_plus_values: Sequence[float] = DEFAULT_T_PLUS_GRID,
    variants: Iterable[str] = VARIANTS,
    mode: str = "text",
) -> SweepTable:
    """Solve every variant over the window grid; per-point errors recorded."""
    rows: list[SweepRow] = []
    for variant in variants:
        _check_variant_mode(variant, mode)
        for t_minus in t_minus_values:
            for t_plus in t_plus_values:
                try:
                    point = params.with_windows(t_minus, t_plus)
                    metrics = evaluate(_build(point, variant, mode))
                    rows.append(SweepRow(variant, t_minus, t_plus, metrics))
                except (ValidationError, StructureError, modlang.ModelError) as err:
                    rows.append(SweepRow(variant, t_minus, t_plus, None, str(err)))
    return SweepTable(tuple(rows), mode)
