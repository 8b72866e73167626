"""Unit tests for the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces.catalog import Trace
from repro.traces.io import save_trace
from repro.traces.synthetic import conflict_series


def _save_conflict_trace(tmp_path):
    values = conflict_series(600, seed=9)
    trace = Trace(
        vm_id="CLI", metric="CPU_usedsec", interval_seconds=300,
        values=values, timestamps=np.arange(values.size, dtype=np.int64) * 300,
    )
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_pyproject_reads_the_version_from_the_package(self):
        """``repro._version`` is the one source of the version:
        pyproject.toml declares it dynamic instead of repeating it."""
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        meta = tomllib.loads(pyproject.read_text())
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro._version.__version__"
        }


class TestArtifactCommands:
    def test_headline(self, capsys):
        assert main(["headline", "--folds", "2"]) == 0
        out = capsys.readouterr().out
        assert "valid traces: 52" in out

    def test_table2(self, capsys):
        assert main(["table2", "--folds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "CPU_usedsec" in out

    def test_table2_other_vm(self, capsys):
        assert main(["table2", "--folds", "2", "--vm", "VM3"]) == 0
        assert "VM3" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3", "--folds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "NaN" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "VM2/CPU_usedsec" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", "--folds", "2"]) == 0
        assert "Figure 6" in capsys.readouterr().out


class TestTraceCommands:
    def test_generate_traces(self, tmp_path, capsys):
        assert main(["generate-traces", str(tmp_path / "out"), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "wrote 60 traces" in out
        assert (tmp_path / "out" / "manifest.csv").exists()

    def test_assess_recommends_conflict_series(self, tmp_path, capsys):
        path = _save_conflict_trace(tmp_path)
        code = main(["assess", str(path)])
        out = capsys.readouterr().out
        assert "headroom" in out
        assert code == 0  # recommendation -> exit 0

    def test_frontier(self, tmp_path, capsys):
        path = _save_conflict_trace(tmp_path)
        assert main(["frontier", str(path)]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out and "LAR" in out

    def test_assess_rejects_white_noise(self, tmp_path, capsys):
        from repro.traces.synthetic import white_noise_series

        values = white_noise_series(600, mean=5.0, std=1.0, seed=8)
        trace = Trace(
            vm_id="CLI", metric="noise", interval_seconds=300,
            values=values,
            timestamps=np.arange(values.size, dtype=np.int64) * 300,
        )
        path = tmp_path / "noise.csv"
        save_trace(trace, path)
        # Non-recommendation signals through the exit code: 3, since a
        # Python traceback exits 1.
        assert main(["assess", str(path)]) == 3
        assert "prefer the static" in capsys.readouterr().out


class TestAblationCommand:
    def test_ablation_pool_sweep(self, capsys):
        assert main(["ablation", "pool", "--folds", "1"]) == 0
        out = capsys.readouterr().out
        assert "paper-pool" in out and "extended-pool" in out

    def test_ablation_unknown_knob(self):
        with pytest.raises(SystemExit):
            main(["ablation", "learning-rate"])


class TestFleetCommand:
    def test_fleet_simulation(self, capsys):
        assert main([
            "fleet", "--streams", "6", "--ticks", "120",
            "--max-rows", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fleet: 6 streams" in out
        assert "stream-ticks/sec" in out
        assert "(3 more streams)" in out

    def test_fleet_rejects_bad_sizes(self, capsys):
        assert main(["fleet", "--streams", "0"]) == 2
        assert main(["fleet", "--ticks", "0"]) == 2

    def test_fleet_telemetry_flag(self, capsys):
        assert main([
            "fleet", "--streams", "4", "--ticks", "120", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "Phase spans" in out
        assert "Events:" in out

    def test_fleet_stats_and_prom_out(self, capsys, tmp_path):
        import json

        stats = tmp_path / "telemetry.json"
        prom = tmp_path / "metrics.prom"
        assert main([
            "fleet", "--streams", "4", "--ticks", "120",
            "--stats-out", str(stats), "--prom-out", str(prom),
        ]) == 0
        doc = json.loads(stats.read_text())
        assert doc["telemetry"]["enabled"] is True
        assert doc["fleet"]["n_streams"] == 4
        from repro.obs import parse_prometheus_text

        parsed = parse_prometheus_text(prom.read_text())
        assert parsed[("repro_fleet_streams", ())] == 4.0


class TestObsCommand:
    def test_summary_format(self, capsys):
        assert main(["obs", "--streams", "4", "--ticks", "140"]) == 0
        out = capsys.readouterr().out
        assert "Phase spans" in out
        assert "tick.knn_query" in out
        assert "train.pca_eigh" in out
        assert "Events:" in out

    def test_prom_format_parses(self, capsys):
        assert main([
            "obs", "--streams", "4", "--ticks", "140", "--format", "prom",
        ]) == 0
        from repro.obs import parse_prometheus_text

        parsed = parse_prometheus_text(capsys.readouterr().out)
        assert parsed[("repro_fleet_streams", ())] == 4.0

    def test_json_format(self, capsys):
        import json

        assert main([
            "obs", "--streams", "4", "--ticks", "140", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["enabled"] is True
        assert "repro_fleet_ticks_total" in doc["telemetry"]["metrics"]

    def test_rejects_bad_sizes(self, capsys):
        assert main(["obs", "--streams", "0"]) == 2

    def test_closed_stdout_exits_quietly(self):
        """A reader that closes stdout early (``repro obs | head``) ends
        the command with exit code 1 and no traceback."""
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs",
                 "--streams", "4", "--ticks", "140"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr
        assert proc.returncode == 1

    def test_quantiles_table(self, capsys):
        assert main([
            "obs", "--streams", "4", "--ticks", "140", "--quantiles",
        ]) == 0
        out = capsys.readouterr().out
        assert "Phase latency quantiles" in out
        assert "p99" in out and "tick.knn_query" in out

    @pytest.mark.parametrize("fmt", ["prom", "json"])
    def test_machine_formats_keep_stdout_parseable(
        self, fmt, capsys, tmp_path
    ):
        """With ``--quantiles`` and ``--trace-out``, stdout still holds
        only the document; the table and the trace note go to stderr."""
        import json

        from repro.obs import parse_prometheus_text

        assert main([
            "obs", "--streams", "4", "--ticks", "140", "--format", fmt,
            "--quantiles", "--trace-out", str(tmp_path / "trace.json"),
        ]) == 0
        captured = capsys.readouterr()
        if fmt == "prom":
            parsed = parse_prometheus_text(captured.out)
            assert parsed[("repro_fleet_streams", ())] == 4.0
        else:
            doc = json.loads(captured.out)
            assert doc["telemetry"]["enabled"] is True
        assert "Phase latency quantiles" in captured.err
        assert "wrote Chrome trace" in captured.err
        assert (tmp_path / "trace.json").exists()

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([
            "obs", "--streams", "4", "--ticks", "140",
            "--trace-out", str(trace_path),
        ]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all("ts" in e and "dur" in e for e in spans)
        assert {e["name"] for e in spans} & {"tick.audit", "train.ar_fit"}


class TestFleetFlightCommand:
    def test_flight_dir_arms_recorder(self, capsys, tmp_path):
        flight_dir = tmp_path / "flight"
        assert main([
            "fleet", "--streams", "4", "--ticks", "100",
            "--flight-dir", str(flight_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "flight recorder" in out
        # Either the storm tripped a dump or the recorder reports armed.
        assert "anomaly snapshot" in out or "armed" in out
