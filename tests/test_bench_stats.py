"""Provenance and the saved-figure round trip."""

import json

import pytest

from repro.bench.harness import FigureResult
from repro.bench.provenance import SCHEMA_VERSION, collect_provenance, git_revision

pytestmark = pytest.mark.bench


def _fig(values):
    fig = FigureResult("figX", "t", "threads", "Gflops", [1, 2])
    fig.add("SMPSs", values)
    return fig


class TestProvenance:
    def test_collect_is_json_safe_and_complete(self):
        prov = collect_provenance(scale="quick", seed=7, figure="fig11")
        json.dumps(prov)  # must not raise
        assert prov["schema"] == SCHEMA_VERSION
        assert prov["scale"] == "quick"
        assert prov["seed"] == 7
        assert prov["figure"] == "fig11"
        assert prov["python"]
        assert prov["timestamp_iso"].endswith("Z")

    def test_git_revision_in_this_repo(self):
        sha = git_revision()
        assert sha is None or (len(sha) == 40 and all(
            c in "0123456789abcdef" for c in sha
        ))

    def test_seed_omitted_when_none(self):
        assert "seed" not in collect_provenance()


class TestFigureRoundTrip:
    def test_provenance_and_spread_survive_save_load(self, tmp_path):
        fig = _fig([10, 20])
        fig.provenance = collect_provenance(scale="quick")
        path = tmp_path / "f.json"
        fig.save(str(path))
        # Files saved before the IQR block was retired carry one; they
        # must keep loading, and the block is simply not read.
        doc = json.loads(path.read_text())
        doc["spread"] = {"SMPSs": [0.5, 1.0]}
        path.write_text(json.dumps(doc))
        loaded = FigureResult.load(str(path))
        assert not hasattr(loaded, "spread")
        assert loaded.get("SMPSs").values == [10, 20]
        assert loaded.provenance["scale"] == "quick"
        assert loaded.provenance["schema"] == SCHEMA_VERSION

    def test_legacy_json_without_provenance_loads(self, tmp_path):
        doc = {"figure_id": "f", "title": "t", "xlabel": "x", "ylabel": "y",
               "x": [1], "series": {"s": [2.0]}, "notes": []}
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(doc))
        loaded = FigureResult.load(str(path))
        assert loaded.provenance == {}
