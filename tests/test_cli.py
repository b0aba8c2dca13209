"""Tests for the command-line interface and the annotate-netlist flow."""

import numpy as np
import pytest

from repro.circuits import read_spice, write_spice
from repro.circuits.generators.analog import ota_5t
from repro.cli import main
from repro.sim import annotated_netlist

SPICE_OTA = """* tiny amplifier
M1 out in vss vss nch NFIN=4 NF=2
Rload out vdd 10k
Cin in vss 2f
.end
"""


class TestAnnotatedNetlist:
    def test_adds_capacitors(self):
        circuit = ota_5t()
        caps = {"out": 2e-15, "tail": 0.5e-15}
        annotated = annotated_netlist(circuit, caps)
        added = [
            inst for inst in annotated.instances() if inst.name.startswith("cpar")
        ]
        assert len(added) == 2
        values = sorted(inst.param("C") for inst in added)
        assert values == [0.5e-15, 2e-15]

    def test_skips_tiny_and_unknown_nets(self):
        circuit = ota_5t()
        annotated = annotated_netlist(
            circuit, {"out": 1e-21, "ghost": 5e-15}, min_cap=1e-18
        )
        added = [
            inst for inst in annotated.instances() if inst.name.startswith("cpar")
        ]
        assert added == []

    def test_original_untouched(self):
        circuit = ota_5t()
        before = circuit.num_instances
        annotated_netlist(circuit, {"out": 1e-15})
        assert circuit.num_instances == before

    def test_annotated_netlist_roundtrips_through_spice(self):
        circuit = ota_5t()
        annotated = annotated_netlist(circuit, {"out": 2e-15})
        text = write_spice(annotated)
        reparsed = read_spice(text, name="rt")
        assert reparsed.num_instances == annotated.num_instances


class TestCli:
    def test_dataset_command(self, capsys):
        assert main(["dataset", "--scale", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "t18" in out

    def test_train_and_predict_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "cap.npz"
        code = main(
            [
                "train", "--target", "CAP", "--epochs", "3",
                "--scale", "0.05", "--out", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()

        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        annotated_path = tmp_path / "amp_annotated.sp"
        code = main(
            [
                "predict", "--model", str(model_path),
                "--netlist", str(netlist),
                "--annotate", str(annotated_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CAP predictions" in out
        annotated_text = annotated_path.read_text()
        assert "cpar" in annotated_text
        # predicted netlist still parses and has the extra capacitors
        reparsed = read_spice(annotated_text)
        cpar = [i for i in reparsed.instances() if "cpar" in i.name]
        assert len(cpar) >= 1

    def test_train_with_runtime_flags(self, tmp_path, capsys):
        model_path = tmp_path / "cap.npz"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(
            [
                "train", "--target", "CAP", "--epochs", "4",
                "--scale", "0.05", "--out", str(model_path),
                "--metrics", str(metrics_path),
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--checkpoint-every", "2",
                "--progress-every", "2",
            ]
        )
        assert code == 0
        assert model_path.exists()
        assert metrics_path.exists()
        assert (tmp_path / "ckpts" / "paragraph-CAP-epoch00004.npz").exists()
        assert "epoch 2/4" in capsys.readouterr().out

    def test_train_all_command(self, tmp_path, capsys):
        out_dir = tmp_path / "models"
        code = main(
            [
                "train-all", "--targets", "CAP,SA", "--epochs", "2",
                "--scale", "0.05", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "CAP.npz").exists()
        assert (out_dir / "SA.npz").exists()
        assert "saved 2 models" in capsys.readouterr().out

    def test_train_all_shared_output_dir_predicts(self, tmp_path, capsys):
        # regression: the shared-trunk output directory holds one
        # multitask.npz, which `predict --model DIR` must load
        import json

        out_dir = tmp_path / "models"
        code = main(
            [
                "train-all", "--targets", "CAP,SA", "--epochs", "2",
                "--scale", "0.05", "--trunk", "shared",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["multitask.npz"]
        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(out_dir), "--netlist", str(netlist),
             "--json"]
        )
        assert code == 0
        (result,) = json.loads(capsys.readouterr().out)
        assert sorted(result["targets"]) == ["CAP", "SA"]

    def test_predict_annotate_requires_cap_model(self, tmp_path, capsys):
        model_path = tmp_path / "sa.npz"
        main(
            [
                "train", "--target", "SA", "--epochs", "3",
                "--scale", "0.05", "--out", str(model_path),
            ]
        )
        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        code = main(
            [
                "predict", "--model", str(model_path),
                "--netlist", str(netlist),
                "--annotate", str(tmp_path / "out.sp"),
            ]
        )
        assert code == 2

    def test_experiment_command_table4(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAGRAPH_BENCH_SCALE", "0.05")
        assert main(["experiment", "table4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPredictCliEndToEnd:
    @pytest.fixture(scope="class")
    def cap_model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "cap.npz"
        assert main(
            ["train", "--target", "CAP", "--epochs", "3",
             "--scale", "0.05", "--out", str(path)]
        ) == 0
        return path

    def test_predict_reports_every_net(self, cap_model, tmp_path, capsys):
        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        code = main(["predict", "--model", str(cap_model), "--netlist", str(netlist)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CAP predictions" in out
        # one line per net of the tiny amplifier, in engineering notation
        for net in ("in", "out"):
            line = next(l for l in out.splitlines() if l.split() and l.split()[0] == net)
            assert line.split()[-1].endswith("F")

    def test_predict_multiple_netlists(self, cap_model, tmp_path, capsys):
        first = tmp_path / "a.sp"
        second = tmp_path / "b.sp"
        first.write_text(SPICE_OTA)
        second.write_text(SPICE_OTA.replace("10k", "22k"))
        code = main(
            ["predict", "--model", str(cap_model),
             "--netlist", str(first), "--netlist", str(second)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"CAP predictions for {first}:" in out
        assert f"CAP predictions for {second}:" in out

    def test_predict_json_output(self, cap_model, tmp_path, capsys):
        import json

        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        code = main(
            ["predict", "--model", str(cap_model),
             "--netlist", str(netlist), "--json"]
        )
        assert code == 0
        results = json.loads(capsys.readouterr().out)
        assert isinstance(results, list) and len(results) == 1
        target = results[0]["targets"]["CAP"]
        assert target["unit"] == "F"
        assert set(target["values"]) >= {"in", "out"}
        # provenance carries the artifact's content-hash version
        assert len(results[0]["model"]["version"]) == 12

    def test_annotate_rejects_multiple_netlists(self, cap_model, tmp_path, capsys):
        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        code = main(
            ["predict", "--model", str(cap_model),
             "--netlist", str(netlist), "--netlist", str(netlist),
             "--annotate", str(tmp_path / "out.sp")]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_predict_values_are_finite_and_positive(self, cap_model, tmp_path, capsys):
        netlist = tmp_path / "amp.sp"
        netlist.write_text(SPICE_OTA)
        from repro.api import predict_one
        from repro.models import TargetPredictor

        predictor = TargetPredictor.load(str(cap_model))
        with open(netlist) as handle:
            circuit = read_spice(handle, name="amp")
        predictions = predict_one(predictor, circuit).named("CAP")
        assert predictions
        assert all(np.isfinite(v) for v in predictions.values())


class TestObsCli:
    def test_trace_and_jsonl_flags_then_report(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        code = main(
            ["train", "--target", "CAP", "--epochs", "2",
             "--scale", "0.05", "--out", str(tmp_path / "cap.npz"),
             "--trace", str(trace), "--obs-jsonl", str(events)]
        )
        assert code == 0
        capsys.readouterr()

        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"train.fit", "train.epoch", "graph.build"} <= names

        assert main(["obs", "report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "train.fit" in report and "train.epoch" in report
        assert "graphs_built_total" in report

        assert main(["obs", "report", str(events)]) == 0
        assert "train.fit" in capsys.readouterr().out

    def test_trace_flag_accepted_before_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["--trace", str(trace), "dataset", "--scale", "0.05"]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        assert "layout.synthesize" in capsys.readouterr().out

    def test_report_on_empty_file_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "report", str(empty)]) == 2
        assert "no observability events" in capsys.readouterr().err

    def test_obs_disabled_after_traced_run(self, tmp_path):
        from repro import obs

        main(["--trace", str(tmp_path / "t.json"), "dataset", "--scale", "0.05"])
        assert not obs.is_enabled()


class TestObsTopCli:
    """`repro obs top` over a directory of worker metrics files."""

    @staticmethod
    def _json():
        import json

        return json

    def _write_worker(self, directory, worker, pid, requests, uptime=10.0):
        import math

        from repro.obs.metrics import MetricsRegistry
        from repro.obs.mpmetrics import MetricsFileWriter

        registry = MetricsRegistry()
        writer = MetricsFileWriter(
            directory, worker=worker, generation=1, pid=pid
        )
        registry.inc("serve.requests_total", requests)
        registry.set("proc.uptime_s", uptime)
        registry.set("proc.rss_kb", 1000.0 * (worker + 1))
        registry.set("serve.queue_depth", float(worker))
        registry.inc("serve.graph_cache_hits_total", 3)
        registry.inc("serve.graph_cache_misses_total", 1)
        registry.observe(
            "serve.request_seconds", 0.05 * (worker + 1),
            buckets=(0.1, 1.0, math.inf),
        )
        writer.publish(registry)
        writer.close()

    def test_once_json_one_row_per_live_worker(self, tmp_path, capsys):
        import os
        import subprocess

        sleeper = subprocess.Popen(["sleep", "30"])
        try:
            self._write_worker(tmp_path, 0, os.getpid(), requests=20)
            self._write_worker(tmp_path, 1, sleeper.pid, requests=30)
            assert main(
                ["obs", "top", "--dir", str(tmp_path), "--once", "--json"]
            ) == 0
            payload = self._json().loads(capsys.readouterr().out)
        finally:
            sleeper.kill()
            sleeper.wait()
        assert payload["dir"] == str(tmp_path)
        workers = payload["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert all(w["alive"] for w in workers)
        assert workers[0]["requests"] == 20.0
        assert workers[0]["rps"] == 2.0  # 20 requests over 10s uptime
        assert workers[0]["cache_hit_pct"] == 75.0
        assert workers[1]["rss_kb"] == 2000
        assert workers[0]["p50_ms"] is not None
        fleet = {row["name"]: row for row in payload["fleet"]}
        assert fleet["serve.requests_total"]["value"] == 50.0
        assert fleet["serve.request_seconds"]["count"] == 2

    def test_dead_workers_are_excluded(self, tmp_path, capsys):
        import os
        import subprocess

        gone = subprocess.Popen(["true"])
        gone.wait()
        self._write_worker(tmp_path, 0, os.getpid(), requests=5)
        self._write_worker(tmp_path, 1, gone.pid, requests=99)
        main(["obs", "top", "--dir", str(tmp_path), "--once", "--json"])
        payload = self._json().loads(capsys.readouterr().out)
        assert [w["worker"] for w in payload["workers"]] == [0]
        fleet = {row["name"]: row for row in payload["fleet"]}
        assert fleet["serve.requests_total"]["value"] == 5.0

    def test_once_table_renders(self, tmp_path, capsys):
        import os

        self._write_worker(tmp_path, 0, os.getpid(), requests=7)
        assert main(["obs", "top", "--dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro obs top" in out
        assert "rps" in out and str(os.getpid()) in out

    def test_once_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["obs", "top", "--dir", str(tmp_path), "--once"]) == 2
        assert "no live worker metrics files" in capsys.readouterr().err

    def test_once_empty_dir_json_is_empty_but_ok(self, tmp_path, capsys):
        assert main(
            ["obs", "top", "--dir", str(tmp_path), "--once", "--json"]
        ) == 0
        payload = self._json().loads(capsys.readouterr().out)
        assert payload["workers"] == [] and payload["fleet"] == []
