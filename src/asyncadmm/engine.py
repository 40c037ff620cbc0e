"""Event-driven execution of partially asynchronous ADMM.

K simulated workers advance a shared virtual clock. Each worker cycles
through: local x-solve (takes a sampled compute delay), multiplier update,
sending its boundary values and multiplier block to every neighbour (each
message takes a sampled link delay and carries the sender's local
iteration), then waiting. A worker takes a message only if its iteration is
newer than that of every message it took on the edge before; an older one
that arrives late is logged and dropped. Once taken messages are held on
ceil(p * |N_k|) distinct edges, the worker closes the cycle with a consensus
update on each of them. Setting p = 1 yields lockstep synchronous execution.
The run stops at the first cycle close whose ``convergence.csv`` row has
``max_residue`` and ``constraint_mismatch`` both at most ``tol``, at a cap,
or at a failed local solve: every outcome returns a :class:`RunResult`.

The simulation is deterministic: delays are drawn from per-worker and
per-link substreams of a single seed, and events at equal times are ordered
by creation. Two runs with the same configuration produce identical traces.

No event scans the edge list or re-evaluates an objective. Each worker's
outgoing links (edge, neighbour, row block, delay spec and stream) and its
local solver's Newton model (``kernel.penalty_model``) are built once. The
link table is the worker's only topology: its length is the degree |N_k| of
the waiting rule. The problem's z-slice tables serve the consensus update.
Each worker's last solve warm-starts its next one. Each region's objective
value is kept from its last ``compute_end``, so the per-cycle objective in
``iteration_log`` is the sum of that cache in region order: the same float
as ``PartitionedProblem.total_objective`` of the current iterates. Payload
vectors come from float64 arrays through ``tolist()``. The engine computes
no payload digest: the trace writer digests each line through
:func:`payload_digest`.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .kernel import (
    AdmmParams,
    WorkerState,
    initial_z,
    lambda_update,
    penalty_model,
    residue,
    x_update,
    z_update,
)
from .localsolver import SolveError, SolveResult
from .problem import Array, PartitionedProblem, flat_start


# --------------------------------------------------------------------------
# delay models


@dataclass(frozen=True)
class DelaySpec:
    """One delay distribution over milliseconds: constant, uniform(lo, hi)
    or lognormal(mean_of_log, sigma_of_log)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind == "constant":
            if len(self.params) != 1 or not 0 <= self.params[0] < math.inf:
                raise ValueError("constant delay needs one finite nonnegative value")
        elif self.kind == "uniform":
            if len(self.params) != 2 or not 0 <= self.params[0] <= self.params[1] < math.inf:
                raise ValueError("uniform delay needs 0 <= lo <= hi < inf")
        elif self.kind == "lognormal":
            if len(self.params) != 2 or not (math.isfinite(self.params[0])
                                             and 0 <= self.params[1] < math.inf):
                raise ValueError("lognormal delay needs finite (mean_log, sigma_log >= 0)")
        else:
            raise ValueError(f"unknown delay kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "DelaySpec":
        return cls("constant", (float(value),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DelaySpec":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def lognormal(cls, mean_log: float, sigma_log: float) -> "DelaySpec":
        return cls("lognormal", (float(mean_log), float(sigma_log)))

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            return float(rng.uniform(self.params[0], self.params[1]))
        return float(rng.lognormal(self.params[0], self.params[1]))

    def describe(self) -> str:
        return f"{self.kind}:" + ",".join(repr(p) for p in self.params)


@dataclass(frozen=True)
class DelayModel:
    """Per-worker compute delays and per-edge link delays, with a seed.

    ``compute_overrides`` maps a worker index to its own spec;
    ``link_overrides`` maps an edge (k, l) with k < l. :meth:`check` is the
    one test that each override names a worker or an edge of the problem;
    :func:`run` makes it before simulating. The same seed always reproduces
    the same sample streams, independent of event interleaving, because
    every worker and every directed link draws from its own substream.
    """

    compute: DelaySpec = DelaySpec.constant(1.0)
    link: DelaySpec = DelaySpec.constant(0.1)
    compute_overrides: dict = field(default_factory=dict)
    link_overrides: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def check(self, problem: PartitionedProblem) -> None:
        """Raise ValueError, naming the config key, for an override that
        names no worker or edge of ``problem``."""
        K, edges = problem.num_regions, {(e.k, e.l) for e in problem.edges}
        for k in self.compute_overrides:
            if not 1 <= k <= K:
                raise ValueError(f"compute_delay.{k} names no worker of this problem (1..{K})")
        for k, l in self.link_overrides:
            if (k, l) not in edges:
                raise ValueError(f"link_delay.{k}-{l} names no edge of this problem")

    def compute_spec(self, k: int) -> DelaySpec:
        return self.compute_overrides.get(k, self.compute)

    def link_spec(self, k: int, l: int) -> DelaySpec:
        key = (min(k, l), max(k, l))
        return self.link_overrides.get(key, self.link)

    def describe(self) -> dict:
        return {
            "compute": self.compute.describe(),
            "link": self.link.describe(),
            "compute_overrides": {str(k): s.describe() for k, s in
                                  sorted(self.compute_overrides.items())},
            "link_overrides": {f"{k}-{l}": s.describe() for (k, l), s in
                               sorted(self.link_overrides.items())},
            "seed": self.seed,
        }


# --------------------------------------------------------------------------
# trace structures


def _canonical(value) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_canonical, value)) + "]"
    return repr(value)


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


_NUMERIC_JSON = re.compile(r'\{(?:"\w+": [-+.\deE\[\], ]+)*\}')  # plain keys, numbers only


def payload_digest(payload: dict, text: str) -> str:
    """First 12 hex digits of the sha256 of the payload's canonical string
    (sorted keys as they are, values by ``repr``, no spaces), given ``text``,
    the payload's ``json.dumps(payload, sort_keys=True)``: for numbers under
    plain keys, that string is ``text`` without its quotes and spaces."""
    if _NUMERIC_JSON.fullmatch(text):
        return _digest(text.replace('"', "").replace(" ", ""))
    return _digest(_canonical(payload))


class TraceEvent(NamedTuple):
    """One simulator event: kind, worker, the worker's local iteration at the
    time, the virtual timestamp, and the payload; the same record that the
    trace reader yields for each line."""

    kind: str
    worker: int
    local_iter: int
    time: float
    payload: dict


@dataclass
class EventTrace:
    """Globally ordered event log of one run. Its last ``end`` event states
    the run's status and end time, and its ``final`` and ``final_z`` events
    the final states."""

    meta: dict
    events: list[TraceEvent] = field(default_factory=list)


@dataclass(frozen=True)
class StoppingRule:
    """Run until the last ``iteration_log`` row's max residue and constraint
    mismatch are both at most ``tol``, or a cap is hit."""

    tol: float = 1e-3
    max_local_iters: int = 1000
    time_cap_ms: float = 1e12

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("stopping tolerance must be positive and finite")
        if not self.max_local_iters >= 1:
            raise ValueError("max_local_iters must be positive")
        if not self.time_cap_ms > 0:
            raise ValueError("time_cap_ms must be positive")


def ready_to_update(num_neighbors: int, fresh_neighbors: int, p: float) -> bool:
    """Waiting rule: a worker may update once at least ceil(p * |N_k|)
    distinct neighbours have a message held — and never with
    zero arrivals when it has neighbours at all."""
    if num_neighbors == 0:
        return True
    needed = max(1, math.ceil(p * num_neighbors))
    return fresh_neighbors >= needed


@dataclass
class RunResult:
    """A finished run, whatever its status. Its status, convergence flag and
    end time are read from the trace's last event, the ``end`` record;
    ``error`` is the failed local solve of an ``aborted`` run, else None."""

    trace: EventTrace
    states: list[WorkerState]
    z: Array
    iteration_log: list[tuple]
    error: SolveError | None = None

    @property
    def status(self) -> str:
        return self.trace.events[-1].payload["status"]

    @property
    def converged(self) -> bool:
        return self.trace.events[-1].payload["converged"]

    @property
    def end_time(self) -> float:
        return self.trace.events[-1].time

    def max_residue(self) -> float:
        """The last ``iteration_log`` row's max residue: ``inf`` until every
        worker has closed a cycle."""
        return self.iteration_log[-1][2] if self.iteration_log else math.inf


# --------------------------------------------------------------------------
# the simulator


class _Simulator:
    def __init__(self, problem, params, delays, stop, x0, descriptor):
        delays.check(problem)
        self.problem = problem
        self.params = params
        self.delays = delays
        self.stop = stop
        K = problem.num_regions
        if x0 is None:
            x0 = [flat_start(problem.region(k)) for k in range(1, K + 1)]
        self.z_global = initial_z(problem, x0)
        self.states = [WorkerState.initial(problem, k, x0[k - 1], self.z_global)
                       for k in range(1, K + 1)]
        # per worker: the held message of each edge, and the sender_iter of
        # the newest message taken on each edge
        self.inbox: dict[int, dict[int, tuple]] = {k: {} for k in range(1, K + 1)}
        self.newest: dict[int, dict[int, int]] = {k: {} for k in range(1, K + 1)}
        # per worker: its Newton model under rho, and its last solve (the warm start)
        self.models = [penalty_model(r, params.rho) for r in problem.regions]
        self.last_solve: list[SolveResult | None] = [None] * K
        # streams: one per worker, then two per edge (k->l, l->k), in order;
        # per worker, its outgoing links in edge order:
        # (edge index, neighbour, own row block, link delay spec, stream)
        children = np.random.SeedSequence(delays.seed).spawn(K + 2 * len(problem.edges))
        self.compute_rng = {k: np.random.default_rng(children[k - 1]) for k in range(1, K + 1)}
        self.links: dict[int, list[tuple]] = {k: [] for k in range(1, K + 1)}
        for i, e in enumerate(problem.edges):
            spec = delays.link_spec(e.k, e.l)
            for own, other, child in ((e.k, e.l, K + 2 * i), (e.l, e.k, K + 2 * i + 1)):
                self.links[own].append((i, other, e.block_of(own), spec,
                                        np.random.default_rng(children[child])))
        self.objectives = [r.objective(s.x) for r, s in zip(problem.regions, self.states)]
        self.heap: list = []
        self.seq = 0
        self.waiting: set[int] = set()
        self.closed = 0  # workers that have closed a cycle, so have a residue
        self.iteration_log: list[tuple] = []
        self.status = "running"
        self.error: SolveError | None = None
        self.now = 0.0
        meta = {
            "version": 1,
            "k": K,
            "edges": [
                {"k": e.k, "l": e.l, "dim": e.dim,
                 "block_k": list(e.block_k), "block_l": list(e.block_l)}
                for e in problem.edges
            ],
            "x0": [[float(v) for v in x] for x in x0],
            "z0": [float(v) for v in self.z_global],
            "params": asdict(params),
            "stop": asdict(stop),
            "delays": delays.describe(),
            "problem": descriptor or {"kind": "opaque"},
        }
        self.trace = EventTrace(meta=meta)

    # -- helpers ----------------------------------------------------------

    def _push(self, time: float, kind: str, data):
        heapq.heappush(self.heap, (time, self.seq, kind, data))
        self.seq += 1

    def _log(self, kind, worker, local_iter, time, payload):
        self.trace.events.append(TraceEvent(kind, worker, local_iter, time, payload))

    def _start_compute(self, k: int, t: float):
        state = self.states[k - 1]
        self._log("compute_start", k, state.local_iter, t, {"z": state.z.tolist()})
        delay = self.delays.compute_spec(k).sample(self.compute_rng[k])
        self._push(t + delay, "done", k)

    def _finish_compute(self, k: int, t: float):
        state = self.states[k - 1]
        region = self.problem.regions[k - 1]
        try:
            result = x_update(region, state, self.params, self.models[k - 1],
                              warm=self.last_solve[k - 1])
        except SolveError as err:
            # the run ends here, with the solver's error as the cause of its own
            self.status, self.error = "aborted", SolveError(
                f"worker {k} local solve failed at cycle {state.local_iter}: {err}",
                err.grad_norm, err.constraint_norm)
            self.error.__cause__ = err
            return
        self.last_solve[k - 1] = result
        state.x = result.x
        state.ax = region.boundary_map @ result.x
        state.lam = lambda_update(state, state.ax, state.z, self.params)
        state.constraint_violation = result.constraint_norm
        self.objectives[k - 1] = region.objective(state.x)
        ax, lam = state.ax.tolist(), state.lam.tolist()
        self._log("compute_end", k, state.local_iter, t,
                  {"x": state.x.tolist(), "lam": lam, "ax": ax,
                   "feas": float(result.constraint_norm)})
        for i, neighbor, blk, spec, rng in self.links[k]:
            payload = {"to": neighbor, "edge": i, "sender_iter": state.local_iter,
                       "ax": ax[blk], "lam": lam[blk]}
            self._log("send", k, state.local_iter, t, payload)
            # state vectors are replaced, never written in place, so the
            # message blocks (and the snapshots below) can be views
            self._push(t + spec.sample(rng), "arrival",
                       (neighbor, k, i, state.local_iter, state.ax[blk], state.lam[blk]))
        self._try_close_cycle(k, t)

    def _try_close_cycle(self, k: int, t: float):
        if not ready_to_update(len(self.links[k]), len(self.inbox[k]), self.params.p):
            self.waiting.add(k)
            return
        self.waiting.discard(k)
        state = self.states[k - 1]
        # consensus update on every edge with a held message, the newest taken;
        # the proximal centre is this worker's own snapshot of the block
        # (its previous local iterate), which also makes simultaneous
        # duplicate updates of a shared block bitwise identical
        inbox = self.inbox[k]
        for i in sorted(inbox):
            sender, sender_iter, ax_blk, lam_blk = inbox.pop(i)
            e = self.problem.edges[i]
            own_blk = e.block_of(k)
            if k == e.k:
                args = (state.lam[own_blk], lam_blk, state.ax[own_blk], ax_blk)
            else:
                args = (lam_blk, state.lam[own_blk], ax_blk, state.ax[own_blk])
            z_new = z_update(e, *args, state.z[own_blk], self.params)
            self.z_global[self.problem.edge_slice(i)] = z_new
            self._log("z_update", k, state.local_iter, t, {
                "edge": i, "with": sender, "sender_iter": sender_iter, "z": z_new.tolist(),
            })
        prev, state.z = state.z, self.problem.region_z(self.z_global, k)
        if state.residue is None:  # this worker's first close
            self.closed += 1
        state.residue = residue(state, prev)
        state.local_iter += 1
        self._record_iteration(t)
        if self._global_stop():
            self.status = "converged"
            return
        if state.local_iter < self.stop.max_local_iters:
            self._start_compute(k, t)

    def _record_iteration(self, t: float):
        # inf until every worker has a residue; the max and the objective sum
        # stay O(K) per close, as convergence.csv keeps their exact floats
        max_res = (max(s.residue for s in self.states)
                   if self.closed == len(self.states) else math.inf)
        mismatch = max([s.constraint_violation for s in self.states])
        objective = float(sum(self.objectives))
        self.iteration_log.append(
            (len(self.iteration_log) + 1, t, float(max_res), objective, float(mismatch))
        )

    def _global_stop(self) -> bool:
        _, _, max_res, _, mismatch = self.iteration_log[-1]
        return max_res <= self.stop.tol and mismatch <= self.stop.tol

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        for k in range(1, self.problem.num_regions + 1):
            self._start_compute(k, 0.0)
        while self.heap and self.status == "running":
            t, _, kind, data = heapq.heappop(self.heap)
            if t > self.stop.time_cap_ms:
                self.status = "time_cap"
                self.now = self.stop.time_cap_ms
                break
            self.now = t
            if kind == "done":
                self._finish_compute(data, t)
            else:
                k, sender, i, sender_iter, ax_blk, lam_blk = data
                self._log("receive", k, self.states[k - 1].local_iter, t,
                          {"from": sender, "edge": i, "sender_iter": sender_iter})
                if sender_iter > self.newest[k].get(i, -1):
                    self.newest[k][i] = sender_iter
                    self.inbox[k][i] = (sender, sender_iter, ax_blk, lam_blk)
                    if k in self.waiting:
                        self._try_close_cycle(k, t)
        if self.status == "running":
            self.status = "iteration_cap"
        # every status closes here; an aborted run's partial trace has no final states
        end = {"status": self.status, "converged": self.status == "converged"}
        if self.error is None:
            for s in self.states:
                self._log("final", s.region_index, s.local_iter, self.now, {
                    "x": s.x.tolist(),
                    "lam": s.lam.tolist(),
                    "z": s.z.tolist(),
                    "residue": float(s.residue) if s.residue is not None else math.inf,
                    "feas": float(s.constraint_violation),
                })
            self._log("final_z", 0, 0, self.now, {"z": self.z_global.tolist()})
        else:
            end["error"] = str(self.error.__cause__)
        self._log("end", 0, 0, self.now, end)
        return RunResult(trace=self.trace, states=self.states, z=self.z_global,
                         iteration_log=self.iteration_log, error=self.error)


def run(
    problem: PartitionedProblem,
    params: AdmmParams,
    delays: DelayModel,
    stop: StoppingRule,
    x0: list[Array] | None = None,
    problem_descriptor: dict | None = None,
) -> RunResult:
    """Execute the asynchronous loop under the given delay model.

    Returns the trace and the final states for every status; the compute/wait
    split is :func:`asyncadmm.analysis.timing_from_trace` of the trace's slicing.
    Identical arguments (including the seed) produce a bitwise-identical trace.
    A local solver failure ends the run ``aborted``, with the partial trace and
    the failure as ``error``; a cap ends it with ``converged=False``. A delay
    override that names no worker or edge raises ``ValueError`` before the
    run starts (:meth:`DelayModel.check`).
    """
    sim = _Simulator(problem, params, delays, stop, x0, problem_descriptor)
    return sim.run()
