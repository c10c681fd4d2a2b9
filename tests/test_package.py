"""Package-level API surface tests."""

from __future__ import annotations

import subprocess
import sys

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_from_docstring(self):
        # The module docstring's quickstart must actually work.
        taxonomy = repro.taxonomy_from_parent_names(
            {
                "transporter": "molecular_function",
                "carrier": "transporter",
                "helicase": "catalytic_activity",
                "catalytic_activity": "molecular_function",
                "molecular_function": [],
            }
        )
        db = repro.GraphDatabase(node_labels=taxonomy.interner)
        db.new_graph(["carrier", "helicase"], [(0, 1)])
        db.new_graph(["transporter", "helicase"], [(0, 1)])
        result = repro.mine(db, taxonomy, min_support=1.0)
        assert len(result) == 1
        names = {
            taxonomy.name_of(result.patterns[0].graph.node_label(v))
            for v in result.patterns[0].graph.nodes()
        }
        assert names == {"transporter", "helicase"}

    def test_serving_exports(self):
        # The serving surface is re-exported at the top level...
        import repro.serving

        for name in ("StoreReader", "ServingAnswer", "BatchExecutor", "Query"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is getattr(repro.serving, name)
        # ...and repro.serving.__all__ is complete and resolvable.
        for name in repro.serving.__all__:
            assert hasattr(repro.serving, name), name
        public = {
            name for name in dir(repro.serving) if not name.startswith("_")
        }
        modules = {
            "admission", "aserver", "batch", "cache", "client",
            "endpoints", "reader", "server",
        }
        assert public - modules == set(repro.serving.__all__)

    def test_incremental_exports_fence_state(self):
        import repro.incremental

        assert "fence_state" in repro.incremental.__all__
        assert callable(repro.incremental.fence_state)

    def test_python_dash_m_entrypoint(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "D1000" in result.stdout


class TestExceptions:
    def test_hierarchy(self):
        for cls in (
            repro.GraphError,
            repro.TaxonomyError,
            repro.FormatError,
            repro.MiningError,
            repro.MemoryBudgetExceeded,
        ):
            assert issubclass(cls, repro.ReproError)

    def test_memory_budget_message(self):
        exc = repro.MemoryBudgetExceeded(150, 100)
        assert "150" in str(exc)
        assert "100" in str(exc)
        assert "memory budget exceeded" in str(exc)
        assert exc.used == 150
        assert exc.budget == 100

    def test_memory_budget_custom_detail(self):
        exc = repro.MemoryBudgetExceeded(5, 1, "level storage")
        assert "level storage" in str(exc)
        assert "memory budget exceeded" in str(exc)
