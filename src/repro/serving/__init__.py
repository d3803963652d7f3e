"""Online serving: continuous-batching request scheduling over Hermes
machines.

The engine layer (:mod:`repro.core`) answers "how long does one batch of
tokens take on one machine"; this package answers the production question
above it: given open-loop request traffic, a batching policy, and a cluster
of Hermes machines, what throughput and TTFT/TBT/E2E latency distribution
do users see?  It is a request-level discrete-event simulation built on the
same :mod:`repro.sim` event calendar the engine uses for overlap modelling.
"""

from .backends import (
    BACKENDS,
    DejaVuBackend,
    DenseGPUBackend,
    MachineExecutor,
    MachineGroup,
    ServingBackend,
    make_backend,
    probe_tokens_per_second,
)
from .executor import default_serving_trace
from .faults import (
    CrashSpec,
    DegradeSpec,
    DomainCrashSpec,
    DomainSpec,
    FaultSchedule,
    PartitionSpec,
    SampleSpec,
    StragglerSpec,
    dump_fault_trace,
    load_fault_trace,
    merge_sampled,
    sample_faults,
)
from .metrics import (
    RequestRecord,
    ServingReport,
    percentile,
    percentile_or_nan,
    time_weighted_mean,
)
from .policies import (
    POLICIES,
    BatchingPolicy,
    FCFSPolicy,
    HermesUnionPolicy,
    NoBatchPolicy,
    ShortestOutputFirstPolicy,
    get_policy,
)
from .simulator import ActiveEntry, ServingConfig, ServingSimulator
from .workload import (
    LengthDistribution,
    Request,
    WorkloadConfig,
    generate_workload,
    merge_workloads,
    workload_from_arrivals,
)

__all__ = [
    "Request",
    "LengthDistribution",
    "WorkloadConfig",
    "generate_workload",
    "merge_workloads",
    "workload_from_arrivals",
    "ActiveEntry",
    "BatchingPolicy",
    "FCFSPolicy",
    "NoBatchPolicy",
    "ShortestOutputFirstPolicy",
    "HermesUnionPolicy",
    "POLICIES",
    "get_policy",
    "MachineExecutor",
    "default_serving_trace",
    "BACKENDS",
    "ServingBackend",
    "DenseGPUBackend",
    "DejaVuBackend",
    "MachineGroup",
    "make_backend",
    "probe_tokens_per_second",
    "FaultSchedule",
    "CrashSpec",
    "StragglerSpec",
    "PartitionSpec",
    "DomainSpec",
    "DomainCrashSpec",
    "DegradeSpec",
    "SampleSpec",
    "sample_faults",
    "merge_sampled",
    "dump_fault_trace",
    "load_fault_trace",
    "percentile",
    "percentile_or_nan",
    "time_weighted_mean",
    "RequestRecord",
    "ServingReport",
    "ServingConfig",
    "ServingSimulator",
]
