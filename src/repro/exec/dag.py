"""Stage-DAG execution: artifact-keyed task graphs over a bounded pool.

The staged pipeline (``segment -> profile -> select -> bake -> deploy``)
runs strictly sequentially per scene, so on a multi-scene corpus every
stage of scene B waits for the *whole* of scene A even though the scenes
share nothing.  This module lifts that chain into an explicit task DAG:

* :class:`DagNode` — one ``stage x scene`` unit of work.  A node declares
  the named artifacts it consumes (``inputs``) and produces (``outputs``)
  and carries a pure ``body`` that maps the input artifacts to the output
  artifacts.  Edges are never declared directly: node A precedes node B
  exactly when one of A's outputs is one of B's inputs, so the dependency
  structure is readable off the artifact names and cannot drift from the
  data flow.
* :class:`TaskDag` — the validated graph: unique node names, a unique
  producer per artifact, every input satisfied (by a producer or a seed
  artifact), no cycles.  :meth:`~TaskDag.topological_order` is the
  deterministic schedule — ready nodes are ordered by ``(-cost, name)``,
  so the heaviest available work dispatches first (longest-processing-
  time-first, applied across stages).
* :class:`DagScheduler` — executes a graph on a bounded thread pool.
  Bodies are pure per scene and the heavy numerics inside them release
  the GIL (numpy) or fan out through an execution backend, so independent
  scenes genuinely overlap; per-scene stage order is preserved by the
  artifact edges alone.  ``workers <= 1`` degenerates to running the
  deterministic topological order inline — the reference the threaded
  path is pinned against.

Determinism: a node body must be a pure function of its declared inputs
(timer side effects excepted — wall clocks are observability, not golden
output), and every artifact has exactly one producer, so the final
artifact mapping is independent of completion order and of ``workers``.
The golden DAG-parity tier (``tests/test_pipeline_dag.py``) pins the full
pipeline's reports bit-identical across worker counts against the
sequential path.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.analysis.sanitize import task_span


class DagValidationError(ValueError):
    """The graph violates the node/edge contract (duplicate producer,
    unsatisfied input, cycle, duplicate node name)."""


@dataclass(frozen=True)
class DagNode:
    """One stage-of-one-scene task in a :class:`TaskDag`.

    Args:
        name: unique node name; the convention is ``"<stage>:<scene>"``.
        stage: pipeline stage label (timer channel and cost-model key).
        scene: scene/dataset label the node belongs to.
        body: pure callable ``body(inputs: dict) -> outputs``; receives a
            mapping of the node's declared input artifacts and returns
            either a mapping holding exactly the declared outputs or — for
            single-output nodes — the bare output value.
        inputs: artifact names this node consumes.
        outputs: artifact names this node produces (globally unique).
        cost: relative (or cost-model-predicted, in seconds) weight used
            to prioritise ready nodes; heavier first.
    """

    name: str
    stage: str
    scene: str
    body: "callable"
    inputs: tuple = ()
    outputs: tuple = ()
    cost: float = 1.0


@dataclass
class DagRunResult:
    """Everything one :meth:`DagScheduler.run` produced.

    ``artifacts`` is the golden part (seed artifacts plus every node
    output); ``node_seconds`` and ``completed_order`` are observability —
    wall clocks and completion order vary run to run and must never feed a
    golden artefact.
    """

    artifacts: dict = field(default_factory=dict)
    node_seconds: dict = field(default_factory=dict)
    completed_order: list = field(default_factory=list)


class TaskDag:
    """A validated artifact-keyed task graph."""

    def __init__(self, nodes=()) -> None:
        self._nodes: dict = {}
        self._producer: dict = {}  # artifact name -> node name
        for node in nodes:
            self.add(node)

    def add(self, node: DagNode) -> DagNode:
        """Add one node, enforcing unique names and unique producers."""
        if node.name in self._nodes:
            raise DagValidationError(f"duplicate node name {node.name!r}")
        for artifact in node.outputs:
            owner = self._producer.get(artifact)
            if owner is not None:
                raise DagValidationError(
                    f"artifact {artifact!r} produced by both {owner!r} and "
                    f"{node.name!r}; every artifact has exactly one producer"
                )
        self._nodes[node.name] = node
        for artifact in node.outputs:
            self._producer[artifact] = node.name
        return node

    @property
    def nodes(self) -> list:
        """The nodes, in insertion order."""
        return list(self._nodes.values())

    def node(self, name: str) -> DagNode:
        return self._nodes[name]

    def dependencies(self, seed_artifacts=()) -> dict:
        """Node name -> sorted producer node names, validating coverage.

        ``seed_artifacts`` are inputs supplied by the caller at run time
        (no producing node required).
        """
        seeds = frozenset(seed_artifacts)
        dependencies: dict = {}
        for node in self._nodes.values():
            producers = []
            for artifact in node.inputs:
                owner = self._producer.get(artifact)
                if owner is not None:
                    producers.append(owner)
                elif artifact not in seeds:
                    raise DagValidationError(
                        f"node {node.name!r} consumes {artifact!r}, which no "
                        "node produces and the caller did not seed"
                    )
            dependencies[node.name] = sorted(set(producers))
        return dependencies

    def topological_order(self, seed_artifacts=()) -> list:
        """The deterministic schedule: a topological order in which ready
        nodes dispatch heaviest-first, ``(-cost, name)`` as the priority.

        Raises :class:`DagValidationError` on cycles or unsatisfied
        inputs; the cycle message names the nodes left blocked.
        """
        dependencies = self.dependencies(seed_artifacts)
        dependents: dict = {name: [] for name in self._nodes}
        indegree: dict = {}
        for name, producers in dependencies.items():
            indegree[name] = len(producers)
            for producer in producers:
                dependents[producer].append(name)
        ready = [
            (-node.cost, node.name)
            for node in self._nodes.values()
            if indegree[node.name] == 0
        ]
        heapq.heapify(ready)
        order: list = []
        while ready:
            _, name = heapq.heappop(ready)
            order.append(self._nodes[name])
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(
                        ready, (-self._nodes[dependent].cost, dependent)
                    )
        if len(order) != len(self._nodes):
            blocked = sorted(
                name for name, degree in indegree.items() if degree > 0
            )
            raise DagValidationError(f"cycle among nodes {blocked!r}")
        return order


def _execute_node(node: DagNode, artifacts: dict) -> tuple:
    """Run one node body; return ``(outputs dict, elapsed seconds)``."""
    inputs = {name: artifacts[name] for name in node.inputs}
    started = time.perf_counter()
    # task_span: the concurrency sanitizer counts this body as in flight
    # (a no-op context manager unless REPRO_SANITIZE is set).
    with task_span():
        produced = node.body(inputs)
    elapsed = time.perf_counter() - started
    expected = tuple(node.outputs)
    if isinstance(produced, dict) and sorted(produced) == sorted(expected):
        outputs = dict(produced)
    elif len(expected) == 1:
        outputs = {expected[0]: produced}
    else:
        raise DagValidationError(
            f"node {node.name!r} must return a mapping holding exactly its "
            f"declared outputs {expected!r}"
        )
    return outputs, elapsed


class DagScheduler:
    """Executes a :class:`TaskDag` on at most ``workers`` threads.

    Thread-level parallelism is the right tier here: node bodies spend
    their time in GIL-releasing numpy kernels or hand work to an execution
    backend, and the artifacts they exchange are plain in-process objects
    (scene datasets and baked bundles do not all pickle, so a process tier
    would force the fork-image one-shot path on every node).  All
    scheduler state is local to :meth:`run`; worker threads only execute
    node bodies and return their outputs, so no shared structure is
    mutated concurrently.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(int(workers), 1)

    def run(self, dag: TaskDag, artifacts=None) -> DagRunResult:
        """Execute every node; returns the final artifact mapping plus
        per-node wall clocks.  ``artifacts`` seeds caller-supplied inputs."""
        result = DagRunResult(artifacts=dict(artifacts or {}))
        order = dag.topological_order(result.artifacts)
        if self.workers <= 1 or len(order) <= 1:
            for node in order:
                outputs, elapsed = _execute_node(node, result.artifacts)
                result.artifacts.update(outputs)
                result.node_seconds[node.name] = elapsed
                result.completed_order.append(node.name)
            return result

        dependencies = dag.dependencies(result.artifacts)
        dependents: dict = {name: [] for name in dependencies}
        indegree: dict = {}
        for name, producers in dependencies.items():
            indegree[name] = len(producers)
            for producer in producers:
                dependents[producer].append(name)
        ready = [
            (-dag.node(name).cost, name)
            for name, degree in indegree.items()
            if degree == 0
        ]
        heapq.heapify(ready)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            in_flight: dict = {}
            while ready or in_flight:
                # Keep at most ``workers`` bodies in flight so the ready
                # heap keeps reprioritising as costs unlock, instead of
                # committing the whole frontier to the executor queue.
                while ready and len(in_flight) < self.workers:
                    _, name = heapq.heappop(ready)
                    node = dag.node(name)
                    future = pool.submit(
                        _execute_node, node, dict(result.artifacts)
                    )
                    in_flight[future] = name
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    name = in_flight.pop(future)
                    outputs, elapsed = future.result()
                    result.artifacts.update(outputs)
                    result.node_seconds[name] = elapsed
                    result.completed_order.append(name)
                    for dependent in dependents[name]:
                        indegree[dependent] -= 1
                        if indegree[dependent] == 0:
                            heapq.heappush(
                                ready, (-dag.node(dependent).cost, dependent)
                            )
        return result
