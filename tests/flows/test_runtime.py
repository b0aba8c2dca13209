"""Tests for the training runtime: caching, instrumentation, fault tolerance."""

import json
import math

import numpy as np
import pytest

from repro.api import collect
from repro.ensemble import train_capacitance_ensemble
from repro.errors import ModelError
from repro.flows import TrainPlan, train
from repro.flows.runtime import (
    ConsoleProgressReporter,
    JsonlMetricsWriter,
    MergedInputsCache,
    RuntimeConfig,
    TrainCallback,
    load_checkpoint,
)
from repro.models import TargetPredictor, TrainConfig


def _quick_config(**kwargs):
    defaults = dict(epochs=6, embed_dim=8, num_layers=2, run_seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestMergedInputsCache:
    def test_multi_target_training_merges_once(self, tiny_bundle, monkeypatch):
        from repro.models.inputs import GraphInputs

        calls = {"merge": 0}
        real_merge = GraphInputs.merge.__func__

        def counting_merge(cls, items):
            calls["merge"] += 1
            return real_merge(cls, items)

        monkeypatch.setattr(GraphInputs, "merge", classmethod(counting_merge))
        cache = MergedInputsCache()
        train(
            tiny_bundle,
            TrainPlan(targets=("CAP", "SA", "RES"), config=_quick_config(epochs=2)),
            inputs_cache=cache,
        )
        # One node population (the train split) -> exactly one merge.
        assert calls["merge"] == 1
        assert cache.misses == 1
        assert cache.hits == 2

    def test_ensemble_training_shares_inputs(self, tiny_bundle):
        cache = MergedInputsCache()
        train_capacitance_ensemble(
            tiny_bundle,
            max_vs=(1e-15,),
            config=_quick_config(epochs=2),
            inputs_cache=cache,
        )
        # 2 members (1 range + full) over one population: 1 miss, 1 hit.
        assert cache.misses == 1
        assert cache.hits == 1

    def test_cached_fit_matches_uncached(self, tiny_bundle):
        plain = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        cached = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle, inputs_cache=MergedInputsCache()
        )
        record = tiny_bundle.records("test")[0]
        _, a = collect(plain, [record])
        _, b = collect(cached, [record])
        np.testing.assert_array_equal(a, b)

    def test_max_v_filter_does_not_corrupt_cache(self, tiny_bundle):
        cache = MergedInputsCache()
        clamped = TargetPredictor(
            "paragraph", "CAP", _quick_config(max_v=1e-15)
        ).fit(tiny_bundle, inputs_cache=cache)
        full = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle, inputs_cache=cache
        )
        assert clamped.target_scaler.scale == 1e-15
        # the full model's scale comes from the unfiltered values
        assert full.target_scaler.scale > 1e-15


class TestInstrumentation:
    def test_history_records_all_series(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle
        )
        history = predictor.history
        assert len(history.losses) == 6
        assert len(history.grad_norms) == 6
        assert len(history.epoch_seconds) == 6
        assert all(g > 0 for g in history.grad_norms)
        assert all(s > 0 for s in history.epoch_seconds)
        assert history.attempts == 1
        assert not history.stopped_early

    def test_jsonl_metrics_writer(self, tiny_bundle, tmp_path):
        path = tmp_path / "metrics.jsonl"
        rt = RuntimeConfig(metrics_jsonl=str(path))
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=3)).fit(
            tiny_bundle, runtime=rt
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        events = [row["event"] for row in rows]
        assert events[0] == "start"
        assert events.count("epoch") == 3
        assert events[-1] == "end"
        epoch_rows = [row for row in rows if row["event"] == "epoch"]
        assert [row["epoch"] for row in epoch_rows] == [1, 2, 3]
        for row in epoch_rows:
            assert row["target"] == "CAP"
            assert math.isfinite(row["loss"])
            assert math.isfinite(row["grad_norm"])
            assert row["seconds"] > 0
        assert rows[-1]["epochs_run"] == 3

    def test_console_reporter_prints(self, tiny_bundle, capsys):
        rt = RuntimeConfig(progress_every=2)
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=4)).fit(
            tiny_bundle, runtime=rt
        )
        out = capsys.readouterr().out
        assert "epoch 2/4" in out
        assert "epoch 4/4" in out
        assert "done:" in out

    def test_console_reporter_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ConsoleProgressReporter(every=0)


class _PoisonAtEpoch(TrainCallback):
    """Inject NaN into the model weights at a given epoch of attempt 0."""

    def __init__(self, epoch):
        self.epoch = epoch
        self.divergences = []

    def on_epoch_end(self, ctx, metrics):
        if ctx.attempt == 0 and metrics.epoch == self.epoch:
            ctx.model.parameters()[0].data[...] = np.nan

    def on_divergence(self, ctx, epoch, reason):
        self.divergences.append((ctx.attempt, epoch, reason))


class TestDivergenceGuard:
    def test_nan_loss_triggers_reseeded_retry(self, tiny_bundle):
        poison = _PoisonAtEpoch(epoch=2)
        rt = RuntimeConfig(callbacks=[poison], max_retries=2)
        predictor = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle, runtime=rt
        )
        assert poison.divergences and poison.divergences[0][0] == 0
        assert "non-finite" in poison.divergences[0][2]
        assert predictor.history.attempts == 2
        assert len(predictor.history.losses) == 6
        assert all(math.isfinite(x) for x in predictor.history.losses)

    def test_retry_uses_fresh_seed(self, tiny_bundle):
        baseline = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle
        )
        poison = _PoisonAtEpoch(epoch=1)
        retried = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle, runtime=RuntimeConfig(callbacks=[poison], max_retries=1)
        )
        record = tiny_bundle.records("test")[0]
        _, a = collect(baseline, [record])
        _, b = collect(retried, [record])
        # The retried attempt initialised from a different substream.
        assert not np.array_equal(a, b)

    def test_exhausted_retries_raise(self, tiny_bundle):
        class _AlwaysPoison(TrainCallback):
            def on_epoch_end(self, ctx, metrics):
                ctx.model.parameters()[0].data[...] = np.nan

        rt = RuntimeConfig(callbacks=[_AlwaysPoison()], max_retries=1)
        with pytest.raises(ModelError, match="diverged"):
            TargetPredictor("paragraph", "CAP", _quick_config()).fit(
                tiny_bundle, runtime=rt
            )


class TestEarlyStopping:
    def test_plateau_stops_training(self, tiny_bundle):
        rt = RuntimeConfig(patience=2, min_delta=1e9)  # nothing ever improves
        predictor = TargetPredictor(
            "paragraph", "CAP", _quick_config(epochs=50)
        ).fit(tiny_bundle, runtime=rt)
        assert predictor.history.stopped_early
        assert len(predictor.history.losses) < 50

    def test_disabled_by_default(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config()).fit(
            tiny_bundle
        )
        assert not predictor.history.stopped_early
        assert len(predictor.history.losses) == 6


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run_bitwise(self, tiny_bundle, tmp_path):
        full = TargetPredictor("paragraph", "CAP", _quick_config(epochs=8)).fit(
            tiny_bundle
        )

        rt = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=4)
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=4)).fit(
            tiny_bundle, runtime=rt
        )
        ckpt = tmp_path / "paragraph-CAP-epoch00004.npz"
        assert ckpt.exists()

        resumed = TargetPredictor("paragraph", "CAP", _quick_config(epochs=8)).fit(
            tiny_bundle, resume_from=ckpt
        )
        full_state = full.model.state_dict()
        resumed_state = resumed.model.state_dict()
        assert set(full_state) == set(resumed_state)
        for name in full_state:
            np.testing.assert_array_equal(full_state[name], resumed_state[name])
        assert resumed.history.losses == full.history.losses
        assert resumed.history.resumed_from == 4

    def test_checkpoint_contains_optimizer_state(self, tiny_bundle, tmp_path):
        rt = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=2)).fit(
            tiny_bundle, runtime=rt
        )
        checkpoint = load_checkpoint(tmp_path / "paragraph-CAP-epoch00002.npz")
        assert checkpoint.epoch == 2
        assert checkpoint.losses and len(checkpoint.losses) == 2
        assert any(key.startswith("m.") for key in checkpoint.optimizer_state)
        assert any(key.startswith("v.") for key in checkpoint.optimizer_state)
        assert int(checkpoint.optimizer_state["step_count"]) == 2

    def test_resume_wrong_target_rejected(self, tiny_bundle, tmp_path):
        rt = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=2)).fit(
            tiny_bundle, runtime=rt
        )
        with pytest.raises(ModelError, match="cannot resume"):
            TargetPredictor("paragraph", "SA", _quick_config(epochs=4)).fit(
                tiny_bundle, resume_from=tmp_path / "paragraph-CAP-epoch00002.npz"
            )

    def test_missing_checkpoint_rejected(self, tiny_bundle, tmp_path):
        with pytest.raises(ModelError, match="does not exist"):
            TargetPredictor("paragraph", "CAP", _quick_config()).fit(
                tiny_bundle, resume_from=tmp_path / "nope.npz"
            )


class TestParallelTraining:
    def test_two_workers_match_serial(self, tiny_bundle):
        cfg = _quick_config(epochs=3)
        serial = train(
            tiny_bundle, TrainPlan(targets=("CAP", "SA"), config=cfg)
        ).model
        parallel = train(
            tiny_bundle,
            TrainPlan(targets=("CAP", "SA"), config=cfg, parallel_workers=2),
        ).model
        assert set(parallel.predictors) == {"CAP", "SA"}
        record = tiny_bundle.records("test")[0]
        for name in ("CAP", "SA"):
            _, a = collect(serial.predictor(name), [record], name)
            _, b = collect(parallel.predictor(name), [record], name)
            np.testing.assert_array_equal(a, b)

    def test_parallel_with_picklable_metrics_writer(self, tiny_bundle, tmp_path):
        path = tmp_path / "parallel.jsonl"
        rt = RuntimeConfig(callbacks=[JsonlMetricsWriter(str(path))])
        train(
            tiny_bundle,
            TrainPlan(
                targets=("CAP", "SA"),
                config=_quick_config(epochs=2),
                runtime=rt,
                parallel_workers=2,
            ),
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {row["target"] for row in rows} == {"CAP", "SA"}


class TestJsonlCrashSafety:
    @staticmethod
    def _ctx():
        from repro.flows.runtime import TrainContext

        return TrainContext(
            conv="paragraph", target="CAP", total_epochs=4, attempt=0, run_seed=0
        )

    @staticmethod
    def _metrics(epoch):
        from repro.flows.runtime import EpochMetrics

        return EpochMetrics(
            epoch=epoch, loss=1.0 / epoch, grad_norm=0.1, lr=1e-3, seconds=0.05
        )

    def test_partial_last_line_tolerated_on_resume(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        # a crash mid-write leaves a truncated, newline-less last line
        path.write_text(
            '{"event": "start", "conv": "paragraph"}\n{"event": "epo'
        )
        writer = JsonlMetricsWriter(path)
        writer.on_epoch_end(self._ctx(), self._metrics(1))
        writer.on_epoch_end(self._ctx(), self._metrics(2))

        lines = path.read_text().splitlines()
        parseable, malformed = [], []
        for line in lines:
            try:
                parseable.append(json.loads(line))
            except json.JSONDecodeError:
                malformed.append(line)
        # only the crashed line is lost; everything after it parses
        assert malformed == ['{"event": "epo']
        assert [row["event"] for row in parseable] == ["start", "epoch", "epoch"]
        assert parseable[-1]["epoch"] == 2

    def test_no_repair_on_clean_or_missing_file(self, tmp_path):
        missing = JsonlMetricsWriter(tmp_path / "fresh.jsonl")
        missing.on_epoch_end(self._ctx(), self._metrics(1))
        (line,) = (tmp_path / "fresh.jsonl").read_text().splitlines()
        assert json.loads(line)["event"] == "epoch"

        clean = tmp_path / "clean.jsonl"
        clean.write_text('{"event": "start"}\n')
        JsonlMetricsWriter(clean).on_epoch_end(self._ctx(), self._metrics(1))
        assert len(clean.read_text().splitlines()) == 2

    def test_checkpoint_rows_are_fsynced(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            os_module, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        writer = JsonlMetricsWriter(tmp_path / "metrics.jsonl")
        writer.on_epoch_end(self._ctx(), self._metrics(1))
        assert synced == []  # epoch rows stay buffered
        writer.on_checkpoint(self._ctx(), "ckpt.npz")
        assert len(synced) == 1  # checkpoint rows hit the disk

    def test_writer_resumes_across_instances(self, tmp_path, tiny_bundle):
        """End-to-end: interrupted run + resume appends to the same log."""
        path = tmp_path / "metrics.jsonl"
        rt = RuntimeConfig(
            metrics_jsonl=str(path),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
        )
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=2)).fit(
            tiny_bundle, runtime=rt
        )
        # simulate the crash: truncate the final bytes of the log
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])

        TargetPredictor("paragraph", "CAP", _quick_config(epochs=4)).fit(
            tiny_bundle,
            runtime=RuntimeConfig(metrics_jsonl=str(path)),
            resume_from=tmp_path / "paragraph-CAP-epoch00002.npz",
        )
        lines = path.read_text().splitlines()
        bad = 0
        events = []
        for line in lines:
            try:
                events.append(json.loads(line)["event"])
            except json.JSONDecodeError:
                bad += 1
        assert bad == 1
        assert events[-1] == "end"
        assert events.count("epoch") >= 3  # 1 surviving + 2 resumed


class TestProgressReporterPacing:
    def _drive(self, reporter, epochs, total, seconds=0.5):
        from repro.flows.runtime import EpochMetrics, TrainContext

        ctx = TrainContext(
            conv="paragraph", target="CAP", total_epochs=total,
            attempt=0, run_seed=0,
        )
        reporter.on_train_start(ctx)
        for epoch in range(1, epochs + 1):
            reporter.on_epoch_end(
                ctx,
                EpochMetrics(epoch=epoch, loss=0.5, grad_norm=0.1,
                             lr=1e-3, seconds=seconds),
            )

    def test_reports_rate_and_eta(self, capsys):
        self._drive(ConsoleProgressReporter(every=2), epochs=2, total=10)
        out = capsys.readouterr().out
        assert "epoch 2/10" in out
        assert "2.0ep/s" in out  # 2 epochs in 1.0s
        assert "eta 4s" in out  # 8 remaining at 2 ep/s

    def test_eta_formats_large_remainders(self, capsys):
        self._drive(
            ConsoleProgressReporter(every=1), epochs=1, total=7201, seconds=1.0
        )
        out = capsys.readouterr().out
        assert "eta 2.0h" in out

    def test_short_run_prints_exactly_one_stable_line(self, capsys):
        # total_epochs < every: the final epoch must still report
        self._drive(ConsoleProgressReporter(every=10), epochs=3, total=3)
        lines = [
            l for l in capsys.readouterr().out.splitlines() if "epoch" in l
        ]
        assert len(lines) == 1
        assert "epoch 3/3" in lines[0]
        assert "eta 0s" in lines[0]

    def test_rate_resets_between_attempts(self, capsys):
        reporter = ConsoleProgressReporter(every=1)
        self._drive(reporter, epochs=1, total=2, seconds=1.0)
        self._drive(reporter, epochs=1, total=2, seconds=0.25)
        first, second = [
            l for l in capsys.readouterr().out.splitlines() if "ep/s" in l
        ]
        assert "1.0ep/s" in first
        assert "4.0ep/s" in second  # not polluted by the earlier attempt
