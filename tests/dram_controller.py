"""Cycle-level DDR4 controller: the test oracle for the bandwidth model.

The paper validates its NDP-DIMM performance model with a modified
Ramulator 2.0 (§V-A).  This module plays that role for
:mod:`repro.dram.bandwidth`: per-bank state machines (rows must be
activated before columns can be read, re-activating a different row
requires a precharge, ACT->ACT is bounded below by tRC) driven by a
request-level controller that enforces the cross-bank constraints of
Table II — column-to-column spacing (tCCD_S/L), activate-to-activate
spacing (tRRD_S/L), the four-activate window (tFAW) and data-bus
occupancy (tBL).  It serves an in-order stream of read requests — which
is exactly the access pattern of an NDP GEMV unit streaming weight
rows — and reports the cycle at which the last burst completes.

Two bus configurations are supported:

* ``internal_paths=False`` — the conventional DIMM view: every burst crosses
  the single 64-bit channel bus (one path), as seen by the host CPU.
* ``internal_paths=True`` — the NDP center-buffer view: each rank x
  bank-group pair owns an independent lane into the buffer chip, so bursts
  on different lanes do not contend (paper §IV-A1, center-buffer design).

``tests/test_dram.py`` checks the closed-form stream bandwidths the
engine runs against this controller.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.dram import DDR4Timing, DIMMGeometry


@dataclasses.dataclass
class Bank:
    """State of a single DRAM bank, tracked in controller clock cycles."""

    timing: DDR4Timing
    open_row: int | None = None
    #: earliest cycle a new ACT may issue (enforces tRC / tRP)
    next_act: int = 0
    #: earliest cycle a READ to the open row may issue (enforces tRCD)
    next_read: int = 0
    #: cycle of the last ACT, used for tRC bookkeeping
    last_act: int = -(10**9)

    def activate(self, row: int, now: int) -> int:
        """Open ``row``; returns the cycle the ACT actually issues.

        If another row is open, a precharge is folded in (tRP) before the
        activate; tRC from the previous ACT is always honoured.
        """
        if row < 0:
            raise ValueError("row must be non-negative")
        earliest = max(now, self.next_act)
        if self.open_row is not None and self.open_row != row:
            earliest = max(earliest, self.last_act + self.timing.tRC)
            earliest += self.timing.tRP
        act_cycle = earliest
        self.open_row = row
        self.last_act = act_cycle
        self.next_read = act_cycle + self.timing.tRCD
        self.next_act = act_cycle + self.timing.tRC
        return act_cycle

    def read(self, row: int, now: int) -> int:
        """Issue a READ to ``row``; returns the issue cycle.

        Activates the row first if it is not open (row-buffer miss).
        """
        if self.open_row != row:
            self.activate(row, now)
        return max(now, self.next_read)

    @property
    def is_open(self) -> bool:
        return self.open_row is not None


@dataclasses.dataclass(frozen=True)
class ReadRequest:
    """A burst-granular read: ``n_bursts`` consecutive bursts of one row."""

    rank: int
    bank_group: int
    bank: int
    row: int
    n_bursts: int = 1

    def __post_init__(self) -> None:
        if min(self.rank, self.bank_group, self.bank, self.row) < 0:
            raise ValueError("addresses must be non-negative")
        if self.n_bursts < 1:
            raise ValueError("n_bursts must be >= 1")


class DRAMController:
    """In-order single-DIMM controller for streaming reads."""

    def __init__(
        self,
        geometry: DIMMGeometry,
        timing: DDR4Timing,
        *,
        internal_paths: bool = False,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.internal_paths = internal_paths
        self._banks: dict[tuple[int, int, int], Bank] = {}
        # per-path bus state: earliest cycle the next burst may start
        n_paths = geometry.internal_paths if internal_paths else 1
        self._bus_free = [0] * n_paths
        # per-(path) last column command cycle and bank group, for tCCD
        self._last_col = [(-(10**9), -1)] * n_paths
        # per-rank activate history for tRRD / tFAW
        self._acts: dict[int, deque[int]] = {}
        self._last_act: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def _bank(self, req: ReadRequest) -> Bank:
        self._validate(req)
        key = (req.rank, req.bank_group, req.bank)
        if key not in self._banks:
            self._banks[key] = Bank(self.timing)
        return self._banks[key]

    def _validate(self, req: ReadRequest) -> None:
        g = self.geometry
        if req.rank >= g.ranks:
            raise ValueError(f"rank {req.rank} out of range (<{g.ranks})")
        if req.bank_group >= g.bank_groups_per_rank:
            raise ValueError(f"bank group {req.bank_group} out of range")
        if req.bank >= g.banks_per_group:
            raise ValueError(f"bank {req.bank} out of range")

    def _path(self, req: ReadRequest) -> int:
        if not self.internal_paths:
            return 0
        return req.rank * self.geometry.bank_groups_per_rank + req.bank_group

    # ------------------------------------------------------------------
    def _activate_constraints(self, rank: int, bank_group: int,
                              earliest: int) -> int:
        """Apply tRRD and tFAW to a proposed ACT issue cycle."""
        t = self.timing
        last = self._last_act.get(rank)
        if last is not None:
            last_cycle, last_bg = last
            gap = t.tRRD_L if last_bg == bank_group else t.tRRD_S
            earliest = max(earliest, last_cycle + gap)
        history = self._acts.setdefault(rank, deque(maxlen=4))
        if len(history) == 4:
            earliest = max(earliest, history[0] + t.tFAW)
        return earliest

    def _note_activate(self, rank: int, bank_group: int, cycle: int) -> None:
        self._acts.setdefault(rank, deque(maxlen=4)).append(cycle)
        self._last_act[rank] = (cycle, bank_group)

    # ------------------------------------------------------------------
    def serve(self, requests: list[ReadRequest]) -> int:
        """Serve ``requests`` in order; returns total cycles until the last
        data burst has fully crossed its bus."""
        t = self.timing
        finish = 0
        last_burst: dict[tuple[int, int, int], int] = {}
        for req in requests:
            bank = self._bank(req)
            path = self._path(req)
            key = (req.rank, req.bank_group, req.bank)
            # Row activation (with tRRD/tFAW) on a row miss.  With a deep
            # request queue the controller issues the ACT *ahead* of the data
            # bus becoming free, so the activation is constrained only by the
            # bank's own history and the rank-level ACT windows — this is
            # what lets bank interleaving hide tRC entirely while streaming.
            if bank.open_row != req.row:
                earliest = bank.next_act
                if bank.is_open:
                    # precharge may not precede the bank's in-flight reads
                    pre = max(last_burst.get(key, 0) + t.tCCD_L,
                              bank.last_act + t.tRC)
                    earliest = max(earliest, pre + t.tRP)
                earliest = self._activate_constraints(
                    req.rank, req.bank_group, earliest
                )
                bank.open_row = None
                bank.next_act = earliest
                act_cycle = bank.activate(req.row, earliest)
                self._note_activate(req.rank, req.bank_group, act_cycle)
            for _ in range(req.n_bursts):
                issue = max(bank.next_read, self._bus_free[path])
                last_cycle, last_bg = self._last_col[path]
                gap = t.tCCD_L if last_bg == req.bank_group else t.tCCD_S
                issue = max(issue, last_cycle + gap)
                self._last_col[path] = (issue, req.bank_group)
                last_burst[key] = issue
                data_end = issue + t.tCL + t.tBL
                self._bus_free[path] = issue + t.tBL
                finish = max(finish, data_end)
        return finish

    # ------------------------------------------------------------------
    def _flat_to_address(self, flat: int) -> tuple[int, int, int]:
        """Bank-group-interleaved flat-bank mapping.

        Consecutive flat indices alternate bank groups (the standard DDR4
        address mapping), so a shared-bus stream pays tCCD_S rather than
        tCCD_L between back-to-back bursts.
        """
        g = self.geometry
        rank = flat // g.banks_per_rank
        within = flat % g.banks_per_rank
        bank_group = within % g.bank_groups_per_rank
        bank_idx = within // g.bank_groups_per_rank
        return rank, bank_group, bank_idx

    def stream_rows(self, total_bytes: int) -> int:
        """Cycles to stream ``total_bytes`` of row-major data.

        Bursts are interleaved round-robin across all banks at cache-line
        granularity (alternating bank groups), which is both the DDR4
        address-mapping convention and the NDP weight-read pattern.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if total_bytes == 0:
            return 0
        g = self.geometry
        n_bursts = -(-total_bytes // g.burst_bytes)
        requests = []
        burst_counter = [0] * g.total_banks
        for i in range(n_bursts):
            flat = i % g.total_banks
            rank, bank_group, bank_idx = self._flat_to_address(flat)
            row = burst_counter[flat] // g.bursts_per_row
            requests.append(ReadRequest(
                rank=rank, bank_group=bank_group, bank=bank_idx,
                row=row, n_bursts=1,
            ))
            burst_counter[flat] += 1
        return self.serve(requests)
