"""The repro.bench CLI: --save/--quick/--seed and the compare gate.

A synthetic millisecond-cheap figure is injected into the registry so
the CLI paths (provenance stamping, baseline recording,
regression/improvement exit codes) are exercised without running real
simulations.  The last class runs every registered quick-mode figure
against its committed baseline as the acceptance check.
"""

import json
import os

import pytest

from repro.bench import experiments as E
from repro.bench import registry
from repro.bench.compare import compare_figures
from repro.bench.harness import FigureResult

pytestmark = pytest.mark.bench


@pytest.fixture
def fake_figure(monkeypatch):
    """Register a cheap synthetic figure 'figt' controlled by `state`."""

    state = {"factor": 1.0, "calls": 0, "seeds": [], "ylabel": "Gflops"}

    def figtest_synthetic(seed=None):
        state["seeds"].append(seed)
        state["calls"] += 1
        fig = FigureResult(
            "Figure T", "synthetic", "threads", state["ylabel"], [1, 2])
        fig.add("SMPSs", [10.0 * state["factor"], 20.0 * state["factor"]])
        return fig

    monkeypatch.setitem(registry.FIGURES, "figt", "figtest_synthetic")
    monkeypatch.setitem(registry.QUICK_PARAMS, "figt", {})
    monkeypatch.setattr(E, "figtest_synthetic", figtest_synthetic, raising=False)
    return state


def _main(argv):
    from repro.bench.cli import main

    return main(argv)


class TestRepeatAndSave:
    def test_save_stamps_provenance_and_spread(self, fake_figure, tmp_path, capsys):
        assert _main(["figt", "--quick", "--save", str(tmp_path)]) == 0
        assert fake_figure["calls"] == 1
        doc = json.loads((tmp_path / "figt.json").read_text())
        assert doc["series"]["SMPSs"] == [10.0, 20.0]
        assert "spread" not in doc  # one run is the figure: no IQR block
        prov = doc["provenance"]
        assert prov["scale"] == "quick" and "repeats" not in prov
        assert prov["figure"] == "figt"
        metrics = json.loads((tmp_path / "figt.metrics.json").read_text())
        assert metrics["provenance"]["figure"] == "figt"
        assert (tmp_path / "figt.csv").exists()

    def test_seed_forwarded_and_recorded(self, fake_figure, tmp_path, capsys):
        assert _main(["figt", "--seed", "42", "--save", str(tmp_path)]) == 0
        assert fake_figure["seeds"] == [42]
        doc = json.loads((tmp_path / "figt.json").read_text())
        assert doc["provenance"]["seed"] == 42

    def test_single_run_default(self, fake_figure, capsys):
        assert _main(["figt"]) == 0
        assert fake_figure["calls"] == 1
        assert "Figure T" in capsys.readouterr().out

    def test_list_mentions_compare(self, capsys):
        assert _main(["list"]) == 0
        assert "compare" in capsys.readouterr().out


class TestCompareGate:
    def _record(self, tmp_path):
        assert _main(["compare", "--baseline", str(tmp_path), "--quick",
                      "--figures", "figt", "--update"]) == 0
        path = tmp_path / "BENCH_figtest_synthetic.json"
        assert path.exists()
        return path

    def test_update_records_baseline_with_provenance(self, fake_figure, tmp_path, capsys):
        path = self._record(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["provenance"]["scale"] == "quick"
        assert doc["provenance"]["seed"] == 0

    def test_unchanged_run_exits_zero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_regression_beyond_threshold_exits_nonzero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 0.80  # -20% Gflops, floor is 5%
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_small_delta_within_noise_passes(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 0.97  # -3% < the 5% floor
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0

    def test_improvement_exits_zero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 1.30
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0
        assert "improved" in capsys.readouterr().out

    def test_missing_baseline_dir_fails(self, fake_figure, tmp_path, capsys):
        assert _main(["compare", "--baseline", str(tmp_path / "nope")]) == 1

    def test_compare_without_baseline_flag(self, capsys):
        assert _main(["compare"]) == 2

    def test_unknown_figure_key(self, fake_figure, tmp_path, capsys):
        assert _main(["compare", "--baseline", str(tmp_path),
                      "--figures", "fig99", "--update"]) == 2


class TestCompareUnits:
    def test_cost_like_ylabel_is_refused_not_guessed(self, fake_figure):
        # The gate has one direction; a figure that would need the
        # other fails loudly instead of being judged upside down.
        fake_figure["ylabel"] = "run time (s)"
        with pytest.raises(ValueError, match="lower-is-better"):
            registry.run_figure("figt", quick=True)

    def test_schema_drift_is_skipped_not_fatal(self):
        base = FigureResult("f", "t", "x", "Gflops", [1, 2])
        base.add("old series", [1.0, 2.0])
        cur = FigureResult("f", "t", "x", "Gflops", [1, 3])
        cur.add("new series", [1.0, 2.0])
        cmp = compare_figures("f", base, cur)
        assert not cmp.points
        assert any("old series" in s for s in cmp.skipped)
        assert any("new series" in s for s in cmp.skipped)


class TestCommittedBaselines:
    BASELINE_DIR = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "baselines"
    )

    def test_baseline_files_are_committed_and_self_describing(self):
        for key in registry.FIGURES:
            name = registry.baseline_filename(key)
            path = os.path.join(self.BASELINE_DIR, name)
            assert os.path.exists(path), f"missing committed baseline {name}"
            prov = FigureResult.load(path).provenance
            assert prov.get("git_sha")
            assert prov.get("scale") == "quick"
            assert prov.get("seed") == 0
            assert prov.get("figure") == key

    @pytest.mark.parametrize("key", sorted(registry.FIGURES))
    def test_quick_figure_reproduces_committed_baseline(self, key):
        """The acceptance check: the figures are virtual time, so an
        unchanged tree reproduces every baseline value exactly."""

        baseline = FigureResult.load(
            os.path.join(self.BASELINE_DIR, registry.baseline_filename(key))
        )
        current = registry.run_figure(key, quick=True, seed=0)
        assert current.x == baseline.x
        assert ({s.label: s.values for s in current.series}
                == {s.label: s.values for s in baseline.series})
