"""Tests of the approximate project call graph (`repro.analysis.callgraph`).

Two tiers: synthetic multi-module fixtures pinning each resolution
capability (module-qualified calls, imported names, method calls of every
flavour, nested closures, entry-point detection), and a closure over the
real ``src/`` tree pinning the two acceptance facts the interprocedural
rules rest on — ``_bake_geometry_task`` is worker-shipped, the
pipeline's orchestrating ``run`` is not.
"""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import (
    build_call_graph,
    format_chain,
    module_name_for_path,
    worker_shipped_scope,
)
from repro.analysis.engine import iter_python_files, load_module


def graph_of(sources: dict):
    """Build a call graph from ``{path: source}`` fixture modules."""
    modules = []
    for path, source in sources.items():
        module = load_module(path, source=source)
        assert module is not None, f"fixture {path} must parse"
        modules.append(module)
    return build_call_graph(modules)


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert module_name_for_path("src/repro/exec/dag.py") == "repro.exec.dag"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/exec/__init__.py") == "repro.exec"

    def test_no_src_segment_uses_full_dotted_path(self):
        assert module_name_for_path("tests/test_x.py") == "tests.test_x"


class TestResolution:
    def test_module_qualified_call_resolves(self):
        graph = graph_of({
            "src/pkg/util.py": "def helper():\n    return 1\n",
            "src/pkg/main.py": (
                "from pkg import util\n"
                "def entry():\n"
                "    return util.helper()\n"
            ),
        })
        assert "pkg.util:helper" in graph.edges["pkg.main:entry"]

    def test_imported_name_resolves_through_alias(self):
        graph = graph_of({
            "src/pkg/util.py": "def helper():\n    return 1\n",
            "src/pkg/main.py": (
                "from pkg.util import helper as h\n"
                "def entry():\n"
                "    return h()\n"
            ),
        })
        assert "pkg.util:helper" in graph.edges["pkg.main:entry"]

    def test_self_method_call_resolves(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "class Runner:\n"
                "    def step(self):\n"
                "        return 1\n"
                "    def run(self):\n"
                "        return self.step()\n"
            ),
        })
        assert "pkg.main:Runner.step" in graph.edges["pkg.main:Runner.run"]

    def test_instance_method_call_resolves_via_constructor_binding(self):
        graph = graph_of({
            "src/pkg/util.py": (
                "class Fitter:\n"
                "    def fit(self):\n"
                "        return 1\n"
            ),
            "src/pkg/main.py": (
                "from pkg.util import Fitter\n"
                "def entry():\n"
                "    fitter = Fitter()\n"
                "    return fitter.fit()\n"
            ),
        })
        edges = graph.edges["pkg.main:entry"]
        assert "pkg.util:Fitter.fit" in edges

    def test_classmethod_style_call_resolves(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "class Model:\n"
                "    @classmethod\n"
                "    def fit(cls):\n"
                "        return cls()\n"
                "def entry():\n"
                "    return Model.fit()\n"
            ),
        })
        assert "pkg.main:Model.fit" in graph.edges["pkg.main:entry"]

    def test_method_on_constructor_result_resolves(self):
        # ProfileFitter(space).fit(...) — the PR 8 profiler chain's shape.
        graph = graph_of({
            "src/pkg/main.py": (
                "class Fitter:\n"
                "    def fit(self):\n"
                "        return 1\n"
                "def entry():\n"
                "    return Fitter().fit()\n"
            ),
        })
        assert "pkg.main:Fitter.fit" in graph.edges["pkg.main:entry"]

    def test_closure_inherits_enclosing_instance_bindings(self):
        # The nested task reads the factory's local (and the `self` alias),
        # exactly how _profile_fit_task builds its shipped closure.
        graph = graph_of({
            "src/pkg/main.py": (
                "class Helper:\n"
                "    def work(self):\n"
                "        return 1\n"
                "class Pipeline:\n"
                "    def ping(self):\n"
                "        return 0\n"
                "    def factory(self):\n"
                "        pipeline = self\n"
                "        helper = Helper()\n"
                "        def task(item):\n"
                "            pipeline.ping()\n"
                "            return helper.work()\n"
                "        return task\n"
            ),
        })
        task_edges = graph.edges["pkg.main:Pipeline.factory.task"]
        assert "pkg.main:Helper.work" in task_edges
        assert "pkg.main:Pipeline.ping" in task_edges

    def test_bare_reference_counts_as_edge(self):
        # Passing a callable along is how tasks reach dispatch sites.
        graph = graph_of({
            "src/pkg/main.py": (
                "def task(item):\n"
                "    return item\n"
                "def entry(backend):\n"
                "    handoff = task\n"
                "    return handoff\n"
            ),
        })
        assert "pkg.main:task" in graph.edges["pkg.main:entry"]

    def test_unresolvable_names_produce_no_edges(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "import json\n"
                "def entry(obj):\n"
                "    return json.dumps(obj.mystery())\n"
            ),
        })
        assert graph.edges["pkg.main:entry"] == ()


class TestEntryPoints:
    def test_backend_map_ships_its_task(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "def task(item):\n"
                "    return item\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        })
        assert graph.shipped_entries == ("pkg.main:task",)

    def test_factory_call_in_task_position_promotes_the_factory(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "def make_task(bound):\n"
                "    def task(item):\n"
                "        return bound + item\n"
                "    return task\n"
                "def run(backend, items):\n"
                "    return backend.map(make_task(3), items)\n"
            ),
        })
        assert graph.shipped_entries == ("pkg.main:make_task",)
        # ...and the closure rides along through the nested-def edge.
        shipped = worker_shipped_scope(graph)
        assert "pkg.main:make_task.task" in shipped

    def test_annotated_parameter_resolves_method_calls(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "class Pipeline:\n"
                "    def run(self, dataset):\n"
                "        return dataset\n"
                "def job(pipeline: Pipeline, dataset):\n"
                "    return pipeline.run(dataset)\n"
                "def run_all(backend, pipelines):\n"
                "    return backend.map(job, pipelines)\n"
            ),
        })
        assert "pkg.main:Pipeline.run" in graph.edges["pkg.main:job"]
        assert "pkg.main:Pipeline.run" in worker_shipped_scope(graph)

    def test_plain_map_on_non_backend_receiver_is_ignored(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "def task(item):\n"
                "    return item\n"
                "def run(pool, items):\n"
                "    return pool.map(task, items)\n"
            ),
        })
        assert graph.shipped_entries == ()


class TestClosureAndChains:
    def test_transitive_closure_carries_witness_chains(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "def leaf():\n"
                "    return 1\n"
                "def mid():\n"
                "    return leaf()\n"
                "def task(item):\n"
                "    return mid()\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        })
        shipped = worker_shipped_scope(graph)
        assert shipped["pkg.main:leaf"] == (
            "pkg.main:task", "pkg.main:mid", "pkg.main:leaf",
        )
        assert format_chain(shipped["pkg.main:leaf"]) == "task -> mid -> leaf"

    def test_dispatcher_itself_is_not_in_scope(self):
        graph = graph_of({
            "src/pkg/main.py": (
                "def task(item):\n"
                "    return item\n"
                "def run(backend, items):\n"
                "    return backend.map(task, items)\n"
            ),
        })
        assert "pkg.main:run" not in worker_shipped_scope(graph)


class TestRealTree:
    @pytest.fixture(scope="class")
    def graph(self):
        modules = [load_module(p) for p in iter_python_files(["src"])]
        return build_call_graph([m for m in modules if m is not None])

    def test_bake_geometry_task_is_worker_shipped(self, graph):
        shipped = worker_shipped_scope(graph)
        assert "repro.core.pipeline:_bake_geometry_task" in shipped

    def test_pipeline_run_is_not_worker_shipped(self, graph):
        # The orchestrator dispatches workers; it never rides along.
        shipped = worker_shipped_scope(graph)
        assert "repro.core.pipeline:NeRFlexPipeline.run" not in shipped

    def test_scopes_are_not_vacuous(self, graph):
        assert len(graph.shipped_entries) >= 2
        assert len(worker_shipped_scope(graph)) >= 10
