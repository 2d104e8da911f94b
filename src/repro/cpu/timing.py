"""Dataflow timing model.

Approximates an out-of-order superscalar core as a dataflow machine
constrained by:

- the frontend **issue width** (4 uops/cycle on Haswell): the issue
  pointer advances uops/width per instruction — multi-uop wrapper
  sequences (extract, broadcast, checks) consume proportionally more
  frontend bandwidth, which is the paper's main overhead mechanism
  (§VII-A, Table III's instruction-increase column);
- the **reorder buffer** (192 entries): an instruction cannot issue
  until the instruction ROB_SIZE places earlier has retired, bounding
  how much latency (cache misses, divides) can be overlapped;
- **operand readiness**: an instruction starts no earlier than its
  latest operand's completion;
- **structural hazards**: two load ports, one store-data port, the
  unpipelined divider, and the 3-wide vector ALU port group (scalar
  ALU ops get all 4 slots; vector ops only 3 — one reason Table III
  shows lower ILP for ELZAR than for native or SWIFT-R);
- **branch mispredictions**: the issue pointer stalls until the branch
  resolves plus a refill penalty.

Total cycles = the latest completion time observed; ILP = executed
instructions / cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Sequence

from ..avx.costs import BRANCH_MISS_PENALTY, ISSUE_WIDTH, ROB_SIZE, CostModel

#: Default for ``TimingModel.issue``'s ``port`` parameter: look the port
#: up in the cost model by opcode. Callers that pre-resolve the lookup
#: (the decoded records) pass the ``(name, busy)`` tuple — or None —
#: directly.
_PORT_LOOKUP = object()


class TimingModel:
    def __init__(
        self,
        cost_model: CostModel,
        issue_width: int = ISSUE_WIDTH,
        rob_size: int = ROB_SIZE,
        branch_miss_penalty: float = BRANCH_MISS_PENALTY,
    ):
        self.costs = cost_model
        self.issue_width = issue_width
        self.rob_size = rob_size
        self.branch_miss_penalty = branch_miss_penalty
        self.issue_time = 0.0
        self.finish_time = 0.0
        self.issued = 0
        self.uops_issued = 0
        self._port_free: Dict[str, float] = {}
        self._rob: deque = deque()
        self._retire_frontier = 0.0

    def reset(self) -> None:
        self.issue_time = 0.0
        self.finish_time = 0.0
        self.issued = 0
        self.uops_issued = 0
        self._port_free.clear()
        self._rob.clear()
        self._retire_frontier = 0.0

    # Core accounting ----------------------------------------------------------

    def issue(
        self,
        opcode: str,
        latency: float,
        operand_times: Sequence[float],
        extra_latency: float = 0.0,
        uops: int = 1,
        is_vector: bool = False,
        port=_PORT_LOOKUP,
    ) -> float:
        """Issue one instruction; returns its completion time.

        Hot path: called once per dynamic instruction, so the port
        reservation (:meth:`_reserve_port`) is inlined and attribute
        traffic minimised. The arithmetic is unchanged — the compiled
        and reference engines must produce bit-identical cycle counts.
        """
        self.issued += 1
        self.uops_issued += uops
        start = self.issue_time
        # ROB: wait for the oldest in-flight instruction to retire.
        rob = self._rob
        if len(rob) >= self.rob_size:
            oldest = rob.popleft()
            if oldest > start:
                start = oldest
        for t in operand_times:
            if t > start:
                start = t
        if port is _PORT_LOOKUP:
            port = self.costs.ports.get(opcode)
        if port is not None:
            port_free = self._port_free
            name = port[0]
            clock = port_free.get(name, 0.0)
            if clock > start:
                start = clock
            port_free[name] = clock + port[1]
        if is_vector:
            port_free = self._port_free
            clock = port_free.get("vecalu", 0.0)
            if clock > start:
                start = clock
            port_free["vecalu"] = clock + self.costs.vector_alu_rtp * uops
        done = start + latency + extra_latency
        if done > self.finish_time:
            self.finish_time = done
        # In-order retirement frontier (monotone completion).
        frontier = self._retire_frontier
        if done > frontier:
            self._retire_frontier = frontier = done
        rob.append(frontier)
        self.issue_time += uops / self.issue_width
        return done

    def _reserve_port(self, name: str, busy: float, start: float) -> float:
        """Bandwidth-clock structural hazard: the unit serves work at a
        bounded sustained rate but out-of-order. The clock advances only
        by the work enqueued (never to a late op's start time), so one
        late-arriving operand cannot serialize independent iterations
        behind it — the unit's total busy time is the binding constraint,
        exactly like a throughput model."""
        clock = self._port_free.get(name, 0.0)
        if clock > start:
            start = clock
        self._port_free[name] = clock + busy
        return start

    def branch_mispredict(self, resolve_time: float) -> None:
        """Frontend refill stall after a mispredicted branch."""
        restart = resolve_time + self.branch_miss_penalty
        if restart > self.issue_time:
            self.issue_time = restart

    # Results --------------------------------------------------------------------

    @property
    def cycles(self) -> float:
        return max(self.finish_time, self.issue_time)

    @property
    def ilp(self) -> float:
        """x86-equivalent instructions per cycle (what perf-stat's
        instructions/cycles ratio measures in Table III)."""
        cycles = self.cycles
        if cycles <= 0:
            return 0.0
        return self.uops_issued / cycles
