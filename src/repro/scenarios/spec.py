"""Declarative scenario specs: a workload is a config file, not code.

A scenario file (JSON, or TOML on Python >= 3.11) describes everything
one cluster simulation needs — the model, the hardware of each machine,
the cluster front door (machine count, router, batching policy), the
priority classes with their SLOs, and a list of tenant traffic streams —
so opening a new workload means writing a spec under ``scenarios/``
instead of touching code.  The schema (every key, with defaults) is
documented in the README's "Scenario spec schema" section; unknown
keys are rejected so typos fail loudly instead of silently meaning
defaults.  Each section that builds a config class takes its allowed
keys from that class's fields, so the schema has one source; only the
top-level, ``trace`` and ``machine`` tables, which build no single
class, list their keys by hand.

Determinism: every sampled quantity is seeded.  Tenants default to
``seed + tenant index`` so two tenants never share a stream, and the
power-of-two router draws its probes from ``cluster.router_seed``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10
    tomllib = None  # type: ignore[assignment]

from ..cluster import ClusterConfig, ClusterReport, ClusterSimulator, ROUTERS
from ..cluster.slo import DEFAULT_CLASS, PriorityClass, SLOPolicy
from ..hardware import GPU_REGISTRY, Machine, get_gpu
from ..models import get_model
from ..serving import (
    BACKENDS,
    BatchingPolicy,
    DomainSpec,
    FaultSchedule,
    HermesUnionPolicy,
    LengthDistribution,
    MachineGroup,
    Request,
    SampleSpec,
    WorkloadConfig,
    generate_workload,
    get_policy,
    load_fault_trace,
    merge_sampled,
    merge_workloads,
)
from ..serving.executor import DEFAULT_TRACE_DECODE, DEFAULT_TRACE_PROMPT
from ..serving.faults import FAULT_EVENT_KINDS, _check_keys, fault_event
from ..sparsity import ActivationTrace, TraceConfig, generate_trace
from ..telemetry import TelemetrySpec, Tracer


def scenario_trace(model: str, granularity: int, seed: int) -> ActivationTrace:
    """The shared activation trace a scenario's machines execute against.

    The shape of :func:`repro.serving.default_serving_trace`, so a
    scenario run exercises the same serving fast path the benchmarks
    measure, explicitly seedable from the spec and generated afresh on
    every call: a cold set-up pays for the trace and its partition
    solve.  Callers that want the memoised trace use
    ``default_serving_trace``.
    """
    config = TraceConfig(
        prompt_len=DEFAULT_TRACE_PROMPT,
        decode_len=DEFAULT_TRACE_DECODE,
        granularity=granularity,
    )
    return generate_trace(get_model(model), config, seed=seed)


def _fields(
    cls: type, *extra: str, drop: typing.Container[str] = ()
) -> tuple[str, ...]:
    """The keys of a section that builds ``cls``: its fields, less
    ``drop``, plus the ``extra`` keys the parser consumes itself."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return tuple(n for n in names if n not in drop) + extra


def _lengths(data: dict | None, context: str) -> LengthDistribution:
    if data is None:
        return LengthDistribution()
    _check_keys(data, _fields(LengthDistribution), context)
    return LengthDistribution(**data)


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's open-loop traffic stream."""

    name: str
    class_name: str
    workload: WorkloadConfig
    seed: int

    def generate(self) -> list[Request]:
        return generate_workload(
            self.workload,
            seed=self.seed,
            tenant=self.name,
            class_name=self.class_name,
        )


@dataclasses.dataclass(frozen=True)
class PlannerSpec:
    """The ``planner:`` section: budget and candidate space for ``plan``.

    Describes which homogeneous fleets the capacity planner may propose
    for this scenario's traffic — the cross product of backends, GPUs,
    models, nominal batches, and machine counts — plus the acceptance
    bar (``target_attainment`` on every SLO-bearing class) and the
    analytic-prune slack.  Empty tuples mean "the whole registry" (or,
    for models and batches, the scenario's own defaults), so a scenario
    without a ``planner:`` section still plans over a sensible space.
    """

    #: largest machine count a candidate fleet may use
    budget: int = 8
    #: backend registry names (empty = every registered backend)
    backends: tuple[str, ...] = ()
    #: GPU registry names (empty = every registered GPU)
    gpus: tuple[str, ...] = ()
    #: model registry names (empty = the scenario's model)
    models: tuple[str, ...] = ()
    #: offline-partition/probe batch sizes (empty = the scenario's
    #: simulator default, ``max(2, cluster.max_batch // 2)``)
    nominal_batches: tuple[int, ...] = ()
    #: explicit machine counts (empty = ``1..budget``); counts above
    #: the budget are dropped at enumeration time
    counts: tuple[int, ...] = ()
    #: joint SLO attainment every SLO-bearing class must reach for a
    #: validated fleet to count as "meeting the SLO table"
    target_attainment: float = 0.95
    #: analytic throughput-prune slack: a candidate survives pruning
    #: while ``optimism x estimated fleet tokens/sec`` covers the
    #: demanded rate, so the heuristic estimate only ever discards
    #: fleets that miss by a wide margin (the simulator never sees a
    #: falsely-infeasible candidate)
    optimism: float = 4.0
    #: optional hard cap on a candidate fleet's bill of materials
    max_cost_usd: float | None = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("planner.budget must be >= 1")
        if not 0.0 < self.target_attainment <= 1.0:
            raise ValueError(
                "planner.target_attainment must be in (0, 1]"
            )
        if self.optimism < 1.0:
            raise ValueError("planner.optimism must be >= 1")
        if any(b < 1 for b in self.nominal_batches):
            raise ValueError("planner.nominal_batches must be >= 1")
        if any(c < 1 for c in self.counts):
            raise ValueError("planner.counts must be >= 1")
        if self.max_cost_usd is not None and self.max_cost_usd <= 0:
            raise ValueError("planner.max_cost_usd must be positive")
        for backend in self.backends:
            if backend.lower() not in BACKENDS:
                known = ", ".join(sorted(BACKENDS))
                raise ValueError(
                    f"planner.backends: unknown backend {backend!r}; "
                    f"known: {known}"
                )
        for gpu in self.gpus:
            if gpu.lower() not in GPU_REGISTRY:
                known = ", ".join(sorted(GPU_REGISTRY))
                raise ValueError(
                    f"planner.gpus: unknown GPU {gpu!r}; known: {known}"
                )
        for model in self.models:
            get_model(model)  # raises with the known-model list


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A fully-resolved scenario: ``run()`` yields the cluster report."""

    name: str
    description: str
    model: str
    granularity: int
    trace_seed: int
    machine: Machine
    config: ClusterConfig
    policy: BatchingPolicy
    slo: SLOPolicy
    tenants: tuple[TenantSpec, ...]
    #: heterogeneous fleet description; ``None`` means the homogeneous
    #: ``cluster.num_machines`` Hermes fleet
    fleet: tuple[MachineGroup, ...] | None = None
    #: declarative telemetry request (the ``telemetry:`` table); the
    #: default spec names no outputs, so runs stay untraced unless the
    #: CLI adds ``--trace-out``
    telemetry: TelemetrySpec = TelemetrySpec()
    #: capacity-planner budget and candidate space (the ``planner:``
    #: table); the default plans over the full backend/GPU registries
    planner: PlannerSpec = PlannerSpec()

    def build_workload(self) -> list[Request]:
        """Merge every tenant's stream into one routed workload."""
        return merge_workloads(*(t.generate() for t in self.tenants))

    def build_trace(self) -> ActivationTrace:
        """The shared activation trace all machines execute against."""
        return scenario_trace(self.model, self.granularity, self.trace_seed)

    def build_simulator(
        self, trace: ActivationTrace | None = None
    ) -> ClusterSimulator:
        return ClusterSimulator(
            self.model,
            self.policy,
            self.config,
            slo=self.slo,
            machine=self.machine,
            trace=trace if trace is not None else self.build_trace(),
            granularity=self.granularity,
            seed=self.trace_seed,
            fleet=self.fleet,
        )

    def run(
        self,
        trace: ActivationTrace | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> ClusterReport:
        return self.build_simulator(trace).run(
            self.build_workload(), tracer=tracer
        )


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
_TOP_KEYS = (
    "name",
    "description",
    "model",
    "seed",
    "trace",
    "machine",
    "fleet",
    "cluster",
    "slo",
    "classes",
    "tenants",
    "telemetry",
    "faults",
    "planner",
)
#: machine-hardware keys, shared by the ``machine`` table and every
#: fleet group's overrides
_MACHINE_KEYS = ("gpu", "num_dimms", "multipliers", "sync_latency")


def _parse_machine(
    data: dict | None,
    base: Machine | None = None,
    context: str = "machine",
) -> Machine:
    machine = base if base is not None else Machine()
    if not data:
        return machine
    _check_keys(data, _MACHINE_KEYS, context)
    if "gpu" in data:
        machine = machine.with_gpu(get_gpu(data["gpu"]))
    if "num_dimms" in data:
        machine = machine.with_dimms(int(data["num_dimms"]))
    if "multipliers" in data:
        machine = machine.with_multipliers(int(data["multipliers"]))
    if "sync_latency" in data:
        machine = dataclasses.replace(
            machine, sync_latency=float(data["sync_latency"])
        )
    return machine


def _parse_fleet(
    data: list | None, base_machine: Machine
) -> tuple[MachineGroup, ...] | None:
    """Machine groups from the ``fleet:`` section (``None`` if absent).

    Each group inherits the scenario-level ``machine`` table and may
    override individual hardware knobs, the backend, the model, and the
    nominal batch; unknown keys are rejected per group.
    """
    if data is None:
        return None
    if not isinstance(data, list) or not data:
        raise ValueError("fleet: must be a non-empty list of machine groups")
    groups: list[MachineGroup] = []
    for index, entry in enumerate(data):
        context = f"fleet[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{context}: each machine group is a mapping")
        # machine-hardware overrides ride along with the group shape,
        # backend choice, and model override
        keys = _fields(MachineGroup, *_MACHINE_KEYS, drop=("machine",))
        _check_keys(entry, keys, context)
        backend = str(entry.get("backend", "hermes"))
        if backend.lower() not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            raise ValueError(
                f"{context}: unknown backend {backend!r}; known: {known}"
            )
        model = entry.get("model")
        if model is not None:
            get_model(model)  # fail at parse time with the known-model list
        machine_overrides = {
            key: entry[key] for key in _MACHINE_KEYS if key in entry
        }
        machine = (
            _parse_machine(machine_overrides, base_machine, context)
            if machine_overrides
            else None
        )
        nominal = entry.get("nominal_batch")
        groups.append(
            MachineGroup(
                count=int(entry.get("count", 1)),
                backend=backend,
                machine=machine,
                model=model,
                nominal_batch=int(nominal) if nominal is not None else None,
            )
        )
    return tuple(groups)


def _parse_cluster(data: dict | None) -> tuple[ClusterConfig, str, dict]:
    """(config, policy name, policy kwargs) from the ``cluster`` table."""
    data = dict(data or {})
    keys = _fields(ClusterConfig, "policy", "union_cap", drop=("faults",))
    _check_keys(data, keys, "cluster")
    policy = data.pop("policy", "fcfs")
    policy_kwargs = {}
    if "union_cap" in data:
        policy_kwargs["union_cap"] = float(data.pop("union_cap"))
    router = data.get("router", "round-robin")
    if router not in ROUTERS:
        known = ", ".join(sorted(ROUTERS))
        raise ValueError(
            f"cluster.router: unknown router {router!r}; known: {known}"
        )
    return ClusterConfig(**data), policy, policy_kwargs


def _parse_domains(data: dict) -> tuple:
    """``faults.domains``: a ``{name: [machine, ...]}`` mapping."""
    table = data.get("domains") or {}
    if not isinstance(table, dict):
        raise ValueError(
            "faults.domains: must map domain names to machine lists"
        )
    out = []
    for name, members in table.items():
        if not isinstance(members, list):
            raise ValueError(
                f"faults.domains.{name}: members must be a list of "
                "machine indices"
            )
        out.append(DomainSpec(name=name, machines=tuple(members)))
    return tuple(out)


def _parse_faults(
    data: dict | None,
    num_machines: int,
    base_dir: pathlib.Path | None = None,
) -> FaultSchedule | None:
    """The ``faults:`` section: explicit events plus seeded sampled chaos.

    Absent section means ``None`` — every machine of the serving loop
    runs against a pristine fault timeline.  Each explicit event and the
    ``sample`` table are built by :func:`~repro.serving.faults.fault_event`
    from their spec class's fields, so an unknown key, a missing one or
    a bad value names its path (``faults.crashes[0]``), and the merged
    schedule is checked against the fleet size.

    ``trace: FILE`` replays a recorded JSONL failure log instead (path
    relative to the scenario file); the trace carries the *complete*
    schedule — seed, domains, every event — so it excludes every other
    fault key.
    """
    if data is None:
        return None
    data = dict(data)
    _check_keys(data, _fields(FaultSchedule, "sample", "trace"), "faults")
    trace = data.pop("trace", None)
    if trace is not None:
        if data:
            raise ValueError(
                "faults.trace replays a complete recorded schedule and "
                f"excludes every other fault key; also found: "
                f"{sorted(data)}"
            )
        path = pathlib.Path(trace)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        schedule = load_fault_trace(path)
        schedule.validate_fleet(num_machines)
        return schedule

    def _events(field: str, cls: type) -> tuple:
        entries = data.get(field)
        if entries is None:
            return ()
        if not isinstance(entries, list):
            raise ValueError(f"faults.{field}: must be a list of mappings")
        out = []
        for index, entry in enumerate(entries):
            context = f"faults.{field}[{index}]"
            if not isinstance(entry, dict):
                raise ValueError(f"{context}: each event is a mapping")
            out.append(fault_event(cls, entry, context))
        return tuple(out)

    schedule = FaultSchedule(
        seed=int(data.get("seed", 0)),
        restart_warmup=float(data.get("restart_warmup", 0.0)),
        domains=_parse_domains(data),
        **{
            field: _events(field, cls)
            for _, cls, field in FAULT_EVENT_KINDS
            if field != "domains"
        },
    )
    sample = data.get("sample")
    if sample is not None:
        schedule = merge_sampled(
            schedule,
            fault_event(SampleSpec, sample, "faults.sample"),
            num_machines,
        )
    schedule.validate_fleet(num_machines)
    return schedule


def _parse_policy(name: str, kwargs: dict) -> BatchingPolicy:
    if kwargs and name != "hermes-union":
        raise ValueError(
            "cluster.union_cap only applies to the hermes-union policy"
        )
    if name == "hermes-union" and kwargs:
        return HermesUnionPolicy(**kwargs)
    return get_policy(name)


def _parse_classes(classes: dict | None, slo_table: dict | None) -> SLOPolicy:
    slo_table = dict(slo_table or {})
    _check_keys(slo_table, _fields(SLOPolicy, drop=("classes",)), "slo")
    parsed: list[PriorityClass] = []
    for name, fields in (classes or {}).items():
        _check_keys(fields, _fields(PriorityClass, drop=("name",)),
              f"classes.{name}")
        parsed.append(
            PriorityClass(
                name=name,
                priority=int(fields.get("priority", 0)),
                ttft_slo=fields.get("ttft_slo"),
                tbt_slo=fields.get("tbt_slo"),
            )
        )
    if not any(c.name == "default" for c in parsed):
        parsed.append(DEFAULT_CLASS)
    return SLOPolicy(classes=tuple(parsed), **slo_table)


def _parse_telemetry(data: dict | None) -> TelemetrySpec:
    data = dict(data or {})
    _check_keys(data, _fields(TelemetrySpec), "telemetry")
    kwargs: dict = {}
    if "sample_interval" in data:
        kwargs["sample_interval"] = float(data["sample_interval"])
    for key in ("stream", "chrome_trace"):
        if data.get(key) is not None:
            kwargs[key] = str(data[key])
    return TelemetrySpec(**kwargs)


def _parse_planner(data: dict | None) -> PlannerSpec:
    data = dict(data or {})
    _check_keys(data, _fields(PlannerSpec), "planner")
    kwargs: dict = {}
    if "budget" in data:
        kwargs["budget"] = int(data["budget"])
    for key in ("backends", "gpus", "models"):
        if key in data:
            value = data[key]
            if not isinstance(value, list):
                raise ValueError(f"planner.{key}: must be a list of names")
            kwargs[key] = tuple(str(v) for v in value)
    for key in ("nominal_batches", "counts"):
        if key in data:
            value = data[key]
            if not isinstance(value, list):
                raise ValueError(
                    f"planner.{key}: must be a list of integers"
                )
            kwargs[key] = tuple(int(v) for v in value)
    for key in ("target_attainment", "optimism"):
        if key in data:
            kwargs[key] = float(data[key])
    if data.get("max_cost_usd") is not None:
        kwargs["max_cost_usd"] = float(data["max_cost_usd"])
    return PlannerSpec(**kwargs)


def _parse_tenant(
    data: dict, index: int, base_seed: int, slo: SLOPolicy
) -> TenantSpec:
    context = f"tenants[{index}]"
    keys = _fields(WorkloadConfig, "name", "class", "seed")
    _check_keys(data, keys, context)
    name = data.get("name", f"tenant-{index}")
    class_name = data.get("class", "default")
    if class_name not in {c.name for c in slo.classes}:
        declared = ", ".join(sorted(c.name for c in slo.classes))
        raise ValueError(
            f"{context}: class {class_name!r} is not declared "
            f"(declared: {declared})"
        )
    # every other key is a WorkloadConfig field, forwarded verbatim
    # except the two length distributions
    workload = {
        k: v for k, v in data.items() if k not in ("name", "class", "seed")
    }
    for key in ("prompt_lens", "output_lens"):
        workload[key] = _lengths(data.get(key), f"{context}.{key}")
    return TenantSpec(
        name=name,
        class_name=class_name,
        workload=WorkloadConfig(**workload),
        seed=int(data.get("seed", base_seed + index)),
    )


def parse_scenario(
    data: dict,
    *,
    name_hint: str = "scenario",
    base_dir: str | pathlib.Path | None = None,
) -> Scenario:
    """Build a :class:`Scenario` from a decoded spec mapping.

    ``base_dir`` anchors relative file references inside the spec (the
    ``faults.trace`` failure log); :func:`load_scenario` passes the
    spec file's own directory.
    """
    if base_dir is not None:
        base_dir = pathlib.Path(base_dir)
    _check_keys(data, _TOP_KEYS, name_hint)
    if "model" not in data:
        raise ValueError(f"{name_hint}: a scenario must name its model")
    tenants_data = data.get("tenants")
    if not tenants_data:
        raise ValueError(f"{name_hint}: a scenario needs >= 1 tenant")
    base_seed = int(data.get("seed", 0))
    trace = dict(data.get("trace") or {})
    _check_keys(trace, ("granularity", "seed"), f"{name_hint}.trace")
    config, policy_name, policy_kwargs = _parse_cluster(data.get("cluster"))
    slo = _parse_classes(data.get("classes"), data.get("slo"))
    machine = _parse_machine(data.get("machine"))
    fleet = _parse_fleet(data.get("fleet"), machine)
    if fleet is not None:
        if "num_machines" in (data.get("cluster") or {}):
            raise ValueError(
                f"{name_hint}: cluster.num_machines conflicts with a "
                "fleet: section — the machine count is the sum of the "
                "group counts"
            )
        config = dataclasses.replace(
            config, num_machines=sum(g.count for g in fleet)
        )
    faults = _parse_faults(
        data.get("faults"), config.num_machines, base_dir=base_dir
    )
    if faults is not None:
        config = dataclasses.replace(config, faults=faults)
    tenants = []
    for index, tenant in enumerate(tenants_data):
        tenants.append(_parse_tenant(tenant, index, base_seed, slo))
    return Scenario(
        name=data.get("name", name_hint),
        description=data.get("description", ""),
        model=data["model"],
        granularity=int(trace.get("granularity", 64)),
        trace_seed=int(trace.get("seed", 7)),
        machine=machine,
        config=config,
        policy=_parse_policy(policy_name, policy_kwargs),
        slo=slo,
        tenants=tuple(tenants),
        fleet=fleet,
        telemetry=_parse_telemetry(data.get("telemetry")),
        planner=_parse_planner(data.get("planner")),
    )


def load_scenario(path: str | pathlib.Path) -> Scenario:
    """Load a scenario spec from a ``.json`` or ``.toml`` file."""
    path = pathlib.Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        data = json.loads(path.read_text())
    elif suffix == ".toml":
        if tomllib is None:
            raise RuntimeError(
                "TOML scenarios need Python >= 3.11 (tomllib); "
                "use the JSON form on older interpreters"
            )
        data = tomllib.loads(path.read_text())
    else:
        raise ValueError(
            f"unsupported scenario format {suffix!r} "
            "(expected .json or .toml)"
        )
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scenario spec must be a mapping")
    return parse_scenario(data, name_hint=path.stem, base_dir=path.parent)
