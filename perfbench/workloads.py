"""The benchmark's three workloads, each generated from one seed.

A workload is a scenario spec (the same schema as ``scenarios/*.json``)
built by a function of the seed.  Every input that is sampled — the
tenant arrival streams, the activation trace and the fault schedule —
takes its own seed from :func:`derive_seed`, so one ``--seed`` argument
fixes the whole input.  Specs set only traffic, fleet, SLO, fidelity
and fault keys: never ``macro_step``, ``shards`` or ``shard_processes``,
which the simulator's defaults decide.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random

#: the seed the benchmark is tuned on
DEFAULT_SEED = 1
#: a seed never used while tuning; it must pass every output check and
#: yield the same metric names as the default seed
HELD_OUT_SEED = 7919


def derive_seed(seed: int, name: str) -> int:
    """A 31-bit seed for input ``name``, fixed by the run's ``seed``."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def params_hash(spec: dict) -> str:
    """SHA-256 of a spec's canonical JSON form."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tenant(seed: int, name: str, cls: str, arrival: str, rate: float,
            count: int, prompt: int, output: tuple[int, int],
            **bursty) -> dict:
    return {
        "name": name,
        "class": cls,
        "arrival": arrival,
        "rate": rate,
        "num_requests": count,
        "seed": derive_seed(seed, f"tenant:{name}"),
        "prompt_lens": {"kind": "fixed", "mean": prompt},
        "output_lens": {"kind": "uniform", "low": output[0],
                        "high": output[1]},
        **bursty,
    }


def slo_exact(seed: int, scale: float = 1.0) -> dict:
    """The ``mixed_slo_opt13b`` shape at 1000 requests.

    Two default Hermes machines serve OPT-13B at exact fidelity behind
    the least-loaded router; an interactive Poisson tenant preempts a
    bursty batch tenant as soon as it finds a full batch.  The load
    fills a machine's eight slots only in passing, so preemptions occur
    without a growing backlog, and the short bursts repeat often enough
    that the latency tails do not hang on one unlucky burst.
    """
    n = max(2, round(1000 * scale))
    return {
        "name": "slo_exact",
        "model": "OPT-13B",
        "trace": {"granularity": 128, "seed": derive_seed(seed, "trace")},
        "cluster": {"num_machines": 2, "max_batch": 8,
                    "router": "least-loaded", "policy": "fcfs"},
        "slo": {"preemptive": True, "headroom": 1.0},
        "classes": {
            "interactive": {"priority": 2, "ttft_slo": 1.0, "tbt_slo": 0.08},
            "batch": {"priority": 0, "ttft_slo": 5.0},
        },
        "tenants": [
            _tenant(seed, "chat", "interactive", "poisson", 4.75,
                    n * 2 // 5, 64, (8, 16)),
            _tenant(seed, "analytics", "batch", "bursty", 7.125,
                    n - n * 2 // 5, 128, (16, 32),
                    burst_factor=2.0, burst_fraction=0.2, burst_period=0.05),
        ],
    }


#: the four ``megafleet_1k`` tenants: (name, class, arrival, rate at
#: 1000 machines, requests at 100k, prompt, output range)
_MEGAFLEET_TENANTS = (
    ("chat", "interactive", "poisson", 3000.0, 30000, 24, (8, 16)),
    ("search", "interactive", "poisson", 2500.0, 25000, 32, (6, 12)),
    ("batch-eval", "bulk", "bursty", 2500.0, 25000, 48, (16, 24)),
    ("summarize", "bulk", "poisson", 2000.0, 20000, 64, (12, 20)),
)


def fleet_fast(seed: int, scale: float = 1.0) -> dict:
    """64 tiny-test machines at ``megafleet_1k``'s per-machine load.

    Rates are scaled by 64/1000 and request counts by 1/10 (10k
    requests).  The bursty tenant's burst period is 10 ms instead of the
    default 2 s: its exponential dwell times make the time to send a
    fixed number of requests vary by about 80 % of one cycle's worth,
    so the ~16 s horizon needs hundreds of cycles, not the one or two a
    2 s period gives, for the makespan (and with it goodput) not to
    hinge on the seed.
    """
    tenants = []
    for name, cls, arrival, rate, count, prompt, output in _MEGAFLEET_TENANTS:
        bursty = {}
        if arrival == "bursty":
            bursty = {"burst_factor": 3.0, "burst_fraction": 0.25,
                      "burst_period": 0.01}
        tenants.append(_tenant(
            seed, name, cls, arrival, rate * 64 / 1000,
            max(1, round(count / 10 * scale)), prompt, output, **bursty))
    return {
        "name": "fleet_fast",
        "model": "tiny-test",
        "trace": {"granularity": 4, "seed": derive_seed(seed, "trace")},
        "cluster": {"num_machines": 64, "max_batch": 8,
                    "router": "round-robin", "policy": "fcfs",
                    "fidelity": "fast"},
        "classes": {
            "interactive": {"priority": 1, "ttft_slo": 0.05,
                            "tbt_slo": 0.01},
            "bulk": {"priority": 0},
        },
        "tenants": tenants,
    }


def _chaos_faults(seed: int, horizon: float) -> dict:
    """A fault schedule sampled over the arrival horizon.

    Every machine crashes twice (restarting), is cut off from the router
    twice and straggles twice; one failure domain crashes as a whole and
    one Hermes machine loses half its DIMMs.  Counts and durations are
    fixed; the seed draws which outage goes where and every instant.
    Crashes and partitions each get their own slot of the horizon, so
    apart from the domain crash at most one machine is unreachable at a
    time.  Without that, some seeds stack crashes and partitions until
    only the slowest backends are reachable, and the latency tail then
    measures that coincidence instead of the fault path.  Straggler
    slowdowns stay below the health monitor's demotion threshold at
    every batch size the fleet runs (see :func:`chaos_mixed`).
    """
    rng = random.Random(derive_seed(seed, "faults"))
    outages = [("crash", m) for m in range(6) for _ in range(2)]
    outages += [("partition", m) for m in range(6) for _ in range(2)]
    rng.shuffle(outages)
    # the domain crash owns [0.44, 0.58) of the horizon; half the
    # outages share the stretch before it in equal slots, half the
    # stretch after
    domain_lo, domain_hi = 0.44, 0.58
    half = len(outages) // 2
    slots = [(0.02 + i * (domain_lo - 0.02) / half,
              (domain_lo - 0.02) / half) for i in range(half)]
    slots += [(domain_hi + i * (0.98 - domain_hi) / half,
               (0.98 - domain_hi) / half) for i in range(half)]
    crash_len, warmup, partition_len = 0.01, 0.002, 0.02
    crashes, partitions = [], []
    for (lo, width), (kind, m) in zip(slots, outages):
        length = crash_len + warmup if kind == "crash" else partition_len
        at = rng.uniform(lo, lo + width - length) * horizon
        if kind == "crash":
            crashes.append({"machine": m, "at": at,
                            "restart_after": crash_len * horizon})
        else:
            partitions.append({"machine": m, "start": at,
                               "end": at + partition_len * horizon})
    stragglers = []
    for m in range(6):
        for lo in (0.0, 0.5):
            start = rng.uniform(lo, lo + 0.45) * horizon
            stragglers.append({"machine": m, "start": start,
                               "end": start + 0.05 * horizon,
                               "slowdown": 1.3})
    return {
        "seed": derive_seed(seed, "fault-schedule"),
        "restart_warmup": warmup * horizon,
        "domains": {"rack-a": [0, 2, 4], "rack-b": [1, 3, 5]},
        "domain_crashes": [{
            "domain": rng.choice(["rack-a", "rack-b"]),
            "at": rng.uniform(domain_lo + 0.01, domain_hi - 0.03) * horizon,
            "restart_after": 0.02 * horizon,
        }],
        "crashes": crashes,
        "stragglers": stragglers,
        "partitions": partitions,
        "degrades": [{
            "machine": rng.choice([0, 1]),
            "at": rng.uniform(0.2, 0.8) * horizon,
            "dimm_fraction": 0.5,
            "bandwidth_factor": 0.75,
        }],
    }


def chaos_mixed(seed: int, scale: float = 1.0) -> dict:
    """Six tiny-test machines of three backends under sampled faults.

    Two Hermes, two dense and two Deja-Vu machines sit in two failure
    domains behind the health-aware least-loaded router.  ``max_batch``
    is 2 because the health monitor compares per-token latency with the
    best it has seen: at a larger batch an emptied batch alone looks
    like a straggler, and a demoted machine then receives no work that
    could clear it.
    """
    n = max(2, round(4000 * scale))
    chat_rate, bulk_rate = 600.0, 900.0
    chat, bulk = n * 2 // 5, n - n * 2 // 5
    horizon = min(chat / chat_rate, bulk / bulk_rate)
    return {
        "name": "chaos_mixed",
        "model": "tiny-test",
        "trace": {"granularity": 4, "seed": derive_seed(seed, "trace")},
        "fleet": [
            {"count": 2, "backend": "hermes"},
            {"count": 2, "backend": "dense"},
            {"count": 2, "backend": "dejavu"},
        ],
        "cluster": {"max_batch": 2, "router": "least-loaded",
                    "health_aware": True, "policy": "fcfs"},
        "classes": {
            "interactive": {"priority": 2, "ttft_slo": 0.003,
                            "tbt_slo": 0.004},
            "bulk": {"priority": 0, "ttft_slo": 0.05},
        },
        "tenants": [
            _tenant(seed, "chat", "interactive", "poisson", chat_rate,
                    chat, 24, (6, 14)),
            _tenant(seed, "bulk", "bulk", "bursty", bulk_rate, bulk, 48,
                    (16, 32), burst_factor=3.0, burst_fraction=0.25,
                    burst_period=0.0005),
        ],
        "faults": _chaos_faults(seed, horizon),
    }


WORKLOADS = {
    "slo_exact": slo_exact,
    "fleet_fast": fleet_fast,
    "chaos_mixed": chaos_mixed,
}
