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

import csv
import functools
import io
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from abps_toolkit import modlang
from abps_toolkit._text import read_utf8
from abps_toolkit.ctmc import (
    RewardVector,
    StationaryDistribution,
    StructureError,
    ValidationError,
    steady_state,
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
    compose,  # noqa: F401 -- kept in this namespace for callers that import it from here
)

#: Interface phases in their numeric encoding order (0..4).
NIC_PHASES = ("off", "disconnected", "setup", "connected", "failed")
PHASE_OFF, PHASE_DISCONNECTED, PHASE_SETUP, PHASE_CONNECTED, PHASE_FAILED = range(5)

#: Oracle states: UMTS only / both interfaces / WiFi only.
ORACLE_U, ORACLE_UW, ORACLE_W = 1, 2, 3

VARIANTS = ("plain", "oracle")
MODES = ("text", "appendix")

#: Per-state power draw in Watts (row: interface, column: phase); read-only.
DEFAULT_ENERGY: Mapping[str, Mapping[str, float]] = MappingProxyType({
    "UMTS": MappingProxyType(
        {"off": 0.0, "disconnected": 0.12, "setup": 0.31, "connected": 0.62, "failed": 0.25}),
    "WiFi": MappingProxyType(
        {"off": 0.0, "disconnected": 0.08, "setup": 0.19, "connected": 0.38, "failed": 0.15}),
})

#: The reference listings hardcode the oracle reactivation rate as a bare 30
#: (a rate, i.e. 33 ms mean dwell); the corrected default is 1/30 (30 s dwell).
APPENDIX_LAMBDA_U_UW = 30.0


@dataclass(frozen=True)
class AbpsParams:
    """Every rate (1/s), probability, power (W) and throughput (Mbps) constant.

    The fields hold what the caller gave. ``lambda_UW_U``, ``lambda_UW_W``
    and ``lambda_W_UW`` left at ``None`` follow the windows by the
    residence-time construction (half the short-window rate for both exits
    of the dual state, the long-window rate for leaving WiFi-only), so the
    oracle dwells ``T_W_minus`` seconds in its dual state and ``T_W_plus``
    in WiFi-only; a value pins that rate, and the pin holds when the
    windows change, in a sweep or through ``dataclasses.replace``.
    :func:`resolved_rates` gives the rates that result.

    What is derived from the fields alone, such as the state-metric table or
    the simulator's rate constants, is built on first use and kept on the
    instance (:func:`_derived`). The instance is frozen and its energy rows
    are read-only, so nothing kept can go stale; ``dataclasses.replace``, a
    copy and an unpickled instance start with nothing kept.
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
    e: Mapping[str, Mapping[str, float]] = field(default_factory=lambda: DEFAULT_ENERGY)
    tput_U: float = 0.2
    tput_W: float = 26.0
    oracle_baseline_power: float = 0.1
    idle_connected_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not (self.T_W_minus > 0.0 and self.T_W_plus >= self.T_W_minus):
            raise ValidationError(
                f"need T_W_plus >= T_W_minus > 0, got {self.T_W_plus}, {self.T_W_minus}"
            )
        derived = _window_rates(self, self.T_W_minus, self.T_W_plus)
        if not math.isfinite(derived["gamma_W_minus"]):
            raise ValidationError(f"1/T_W_minus must be finite, got T_W_minus={self.T_W_minus!r}")
        for name in (
            "alpha_U", "beta_U", "gamma_U", "mu_U", "alpha_W", "beta_W", "mu_W",
            "lambda_U_UW", "lambda_UW_U", "lambda_UW_W", "lambda_W_UW",
        ):
            value = derived.get(name, getattr(self, name))
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"rate {name} must be positive and finite, got {value!r}")
        for name in ("p_U", "p_W"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValidationError(f"probability {name} must be in (0, 1], got {value!r}")
        if not (0.0 <= self.idle_connected_fraction <= 1.0):
            raise ValidationError("idle_connected_fraction must be in [0, 1]")
        # read-only copies of the rows, so the table checked here stays as it is
        object.__setattr__(self, "e", MappingProxyType(
            {nic: MappingProxyType(dict(row)) for nic, row in self.e.items()}))
        if set(self.e) != {"UMTS", "WiFi"}:
            raise ValidationError("energy table needs exactly the UMTS and WiFi rows")
        for nic, row in self.e.items():
            if set(row) != set(NIC_PHASES):
                raise ValidationError(f"energy row {nic!r} must cover phases {NIC_PHASES}")
            if row["off"] != 0.0:
                raise ValidationError(f"energy of the off phase must be 0, got {row['off']!r}")
        amounts = [(f"e.{nic}.{phase}", v)
                   for nic, row in self.e.items() for phase, v in row.items()]
        amounts += [(name, getattr(self, name))
                    for name in ("tput_U", "tput_W", "oracle_baseline_power")]
        for name, value in amounts:
            if not 0.0 <= value < math.inf:
                raise ValidationError(f"{name} must be nonnegative and finite, got {value!r}")
        # every state power is at most the baseline plus each row's largest entry
        terms = [("oracle_baseline_power", self.oracle_baseline_power)]
        terms += [max(((f"e.{nic}.{phase}", self.e[nic][phase]) for phase in NIC_PHASES),
                      key=lambda term: term[1]) for nic in ("UMTS", "WiFi")]
        if not math.isfinite(sum(value for _, value in terms)):
            raise ValidationError(
                f"state power {' + '.join(name for name, _ in terms)} = "
                f"{' + '.join(repr(value) for _, value in terms)} is not finite")
        object.__setattr__(self, "_tables", {})

    def __reduce__(self):
        # the fields alone, the energy rows as plain dicts: a copy or an
        # unpickled instance goes through __post_init__ and keeps no table
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["e"] = {nic: dict(row) for nic, row in self.e.items()}
        return functools.partial(type(self), **values), ()


def _derived(params: AbpsParams, build, *args):
    """``build(params, *args)``, built on the first call and kept on
    ``params`` under ``(build, *args)``."""
    key = (build, *args)
    table = params._tables.get(key)
    if table is None:
        table = params._tables[key] = build(params, *args)
    return table


def _window_rates(params: AbpsParams, T_W_minus, T_W_plus) -> dict:
    """The rates the WiFi windows set, for floats or arrays of them: both
    gammas, and each oracle rate ``params`` does not pin, by the
    residence-time construction."""
    gamma_minus, gamma_plus = 1.0 / T_W_minus, 1.0 / T_W_plus
    half = 0.5 * gamma_minus
    derived = {"lambda_UW_U": half, "lambda_UW_W": half, "lambda_W_UW": gamma_plus}
    rates = {"gamma_W_minus": gamma_minus, "gamma_W_plus": gamma_plus}
    rates.update((name, rate) for name, rate in derived.items() if getattr(params, name) is None)
    return rates


def default_params(**overrides) -> AbpsParams:
    """The empirically grounded defaults; keyword overrides as needed."""
    return AbpsParams(**overrides)


_SCALAR_FIELDS = {
    f for f in AbpsParams.__dataclass_fields__ if f != "e"
}


def params_from_mapping(entries: Mapping[str, float]) -> AbpsParams:
    """The defaults with flat ``key=value`` overrides (``e.<NIC>.<phase>``
    for energy), checked once."""
    scalars: dict[str, float] = {}
    energy = {nic: dict(row) for nic, row in DEFAULT_ENERGY.items()}
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
        else:
            raise ValidationError(f"unknown parameter {key!r}")
    return AbpsParams(e=energy, **scalars)


def parse_entry(text: str) -> dict[str, float]:
    """The ``key = value`` entry of one ``--params`` flag or parameter-file
    line: ``#`` starts a comment, blanks around the key and the value do not
    count, and a text with nothing before its comment has no entry."""
    entry = text.split("#", 1)[0].strip()
    if not entry:
        return {}
    key, eq, value = (part.strip() for part in entry.partition("="))
    if not eq:
        raise ValidationError(f"expected key=value, got {text.strip()!r}")
    try:
        return {key: float(value)}
    except ValueError:
        raise ValidationError(f"non-numeric value for {key!r}: {value!r}") from None


def read_entries(path) -> dict[str, float]:
    """The entries of a parameter file, one :func:`parse_entry` per line, for
    :func:`params_from_mapping`; an error names the path and the line."""
    entries: dict[str, float] = {}
    for lineno, line in enumerate(read_utf8(path, None), start=1):
        try:
            entries.update(parse_entry(line))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
    return entries


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
    read state by state off the table of :func:`state_power` and
    :func:`state_throughput` over the phase pairs, the same table the event
    simulator integrates.
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
    windows = _window_rates(params, params.T_W_minus, params.T_W_plus)
    return {
        "alpha_U": params.alpha_U,
        "umts_setup_success": params.beta_U * params.p_U,
        "umts_setup_fail": params.beta_U * (1.0 - params.p_U),
        "gamma_U": params.gamma_U,
        "mu_U": params.mu_U,
        "alpha_W": params.alpha_W,
        "wifi_setup_success": params.beta_W * (params.p_U if appendix else params.p_W),
        "wifi_setup_fail": params.beta_W * (1.0 - params.p_W),
        "gamma_W_plus": windows["gamma_W_plus"],
        "gamma_W_minus": windows["gamma_W_minus"],
        "mu_W": params.mu_W,
        "lambda_U_UW": APPENDIX_LAMBDA_U_UW if appendix else params.lambda_U_UW,
        **{name: windows.get(name, getattr(params, name))
           for name in ("lambda_UW_U", "lambda_UW_W", "lambda_W_UW")},
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


#: One compiled program per variant for the whole process: a point replays
#: its walk, evaluating only the rates, and a sweep solves a grid in a stack.
_PROGRAMS = {variant: modlang.compile(_spec(variant)) for variant in VARIANTS}


def _build(params: AbpsParams, variant: str, mode: str) -> AbpsModel:
    _check_variant_mode(variant, mode)
    program = _PROGRAMS[variant]
    chain = program.evaluate(resolved_rates(params, mode))
    _, energy, throughput = _rewards(chain.var_names, chain.states, params, mode, variant)
    chain = replace(chain, rewards={"energy": energy, "throughput": throughput})
    return AbpsModel(variant, mode, params, program.spec, chain)


def _rewards(var_names, states, params: AbpsParams, mode: str, variant: str) -> np.ndarray:
    """The availability, energy and throughput vectors over a builder's
    ``states``, whose phases lie in 0..4, read off :func:`_phase_table`."""
    phases = np.array(states, dtype=np.intp).reshape(len(states), len(var_names))
    u, w = phases[:, var_names.index("s_U")], phases[:, var_names.index("s_W")]
    vectors = _derived(params, _phase_table, mode, variant)[:, u, w]
    vectors.flags.writeable = False
    return vectors


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
# energy and throughput rules. The chain builders and the event simulator read
# them through one table per parameter set, mode and variant; the simulator
# integrates them over simulated time.


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


def _phase_table(params: AbpsParams, mode: str, variant: str) -> np.ndarray:
    """:func:`state_available` (1.0 or 0.0), :func:`state_power` and
    :func:`state_throughput` at every phase pair, ``[:, s_U, s_W]``;
    read-only. Read it through ``_derived``, which builds it once."""
    phases = range(len(NIC_PHASES))
    table = np.array([[[float(state_available(u, w)) for w in phases] for u in phases],
                      [[state_power(u, w, params, mode, variant) for w in phases] for u in phases],
                      [[state_throughput(u, w, params) for w in phases] for u in phases]])
    table.flags.writeable = False
    return table


# --------------------------------------------------------------------------
# Metric evaluation


@dataclass(frozen=True)
class MetricsResult:
    """Stationary availability, power and throughput of one solved model."""

    availability: float
    power_w: float
    throughput_mbps: float
    distribution: StationaryDistribution


def evaluate_chain(chain: ComposedChain) -> MetricsResult:
    """Solve a composed chain and read the three standard metrics off it.

    The chain must expose ``s_U``/``s_W`` variables and ``energy`` and
    ``throughput`` reward structures. Availability is the stationary mass
    of the states :func:`state_available` accepts.
    """
    for var in ("s_U", "s_W"):
        if var not in chain.var_names:
            raise ValidationError(f"chain lacks the {var!r} variable needed for availability")
    for rname in ("energy", "throughput"):
        if rname not in chain.rewards:
            raise ValidationError(f"chain lacks the {rname!r} reward structure")
    dist = steady_state(chain.generator, chain.initial)
    # a listing's phases may leave 0..4, so its states are asked one by one
    u, w = chain.var_names.index("s_U"), chain.var_names.index("s_W")
    vectors = [np.array([state_available(s[u], s[w]) for s in chain.states], dtype=float)]
    vectors += [RewardVector(chain.rewards[rname]).values for rname in ("energy", "throughput")]
    [(availability, power, throughput)] = _metrics(dist.probabilities[np.newaxis], vectors)
    return MetricsResult(availability, power, throughput, dist)


def _metrics(probabilities: np.ndarray, vectors) -> list[tuple[float, float, float]]:
    """Availability, power and throughput of each row of stacked stationary
    distributions, given the availability, energy and throughput vectors.
    Each is a row-wise sum of products, so a row reads the same alone as in
    any stack."""
    available, energy, throughput = vectors
    return list(zip(
        np.clip((probabilities * available).sum(axis=1), 0.0, 1.0).tolist(),
        (probabilities * energy).sum(axis=1).tolist(),
        (probabilities * throughput).sum(axis=1).tolist(),
    ))


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
    """Solve every variant over the window grid; per-point errors recorded.

    A variant's grid is one batch (:meth:`modlang.Program.evaluate_many`),
    read with the metric rules of :func:`evaluate_chain`. A point the batch
    leaves out is evaluated alone, as ``evaluate(build(variant,
    replace(params, T_W_minus=t_minus, T_W_plus=t_plus), mode))``, which
    also gives the error text of a point that fails. Pinned oracle rates
    hold at every point.
    """
    points = [(t_minus, t_plus) for t_minus in t_minus_values for t_plus in t_plus_values]
    rows: list[SweepRow] = []
    for variant in variants:
        _check_variant_mode(variant, mode)
        for (t_minus, t_plus), metrics in zip(points, _sweep_batch(params, points, variant, mode)):
            error = None
            if metrics is None:
                try:
                    point = replace(params, T_W_minus=t_minus, T_W_plus=t_plus)
                    metrics = evaluate(_build(point, variant, mode))
                except (ValidationError, StructureError, modlang.ModelError) as err:
                    error = str(err)
            rows.append(SweepRow(variant, t_minus, t_plus, metrics, error))
    return SweepTable(tuple(rows), mode)


def _sweep_batch(params: AbpsParams, points, variant: str, mode: str) -> list:
    """The metrics at each window pair from one stacked solve, or None for a
    point to evaluate alone: one whose windows are not floats or set a rate
    that is not positive and finite, or that the batch leaves out. A pinned
    oracle rate is one value for every point."""
    found: list[MetricsResult | None] = [None] * len(points)
    if not all(isinstance(t, float) for point in points for t in point):
        return found
    t_minus, t_plus = np.array(points, dtype=float).reshape(-1, 2).T
    with np.errstate(divide="ignore", over="ignore"):
        windows = _window_rates(params, t_minus, t_plus)
    valid = (t_minus > 0.0) & (t_plus >= t_minus)
    for rate in windows.values():
        valid &= (rate > 0.0) & np.isfinite(rate)
    picked = np.flatnonzero(valid)
    rates = resolved_rates(params, mode)
    rates.update((name, rate[picked]) for name, rate in windows.items())
    program = _PROGRAMS[variant]
    batch = program.evaluate_many(rates)
    available, energy, throughput = _rewards(program.var_names, batch.states, params, mode,
                                             variant)
    vectors = (available, RewardVector(energy).values, RewardVector(throughput).values)
    solved = batch.probabilities[batch.ok]
    dists = StationaryDistribution.rows(solved)
    for k, dist, metrics in zip(picked[batch.ok], dists, _metrics(solved, vectors)):
        found[k] = MetricsResult(*metrics, dist)
    return found
