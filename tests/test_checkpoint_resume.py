"""Crash-survivable sweeps: checkpoint/resume, hardened cache reads,
and per-point retry with bounded backoff.

Two crash shapes are exercised: an in-process abort partway through a
grid (exception out of ``run_points``) and a real ``SIGKILL`` of a CLI
sweep subprocess.  Both must resume from the snapshot without
recomputing finished points, and the completed grid must match a clean
uninterrupted run byte for byte.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim import parallel
from repro.sim.config import Scheme
from repro.sim.parallel import (
    SweepCache, SweepCheckpoint, SweepPoint, SweepRunStats, run_points,
)
from repro.sim.sweep import SweepGrid, run_sweep

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}


def specs(n=4):
    return [
        SweepPoint.build(app, Scheme.SRAM_64TSB, 200, 80, 1, FAST)
        for app in ("x264", "hmmer", "mcf", "tpcc")[:n]
    ]


class _AbortAfter:
    """Progress callback that raises after N completions (the
    in-process stand-in for a crash mid-grid)."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, app, scheme):
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt("simulated crash")


class TestCheckpointResume:
    def test_resume_after_inprocess_crash(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        points = specs(4)

        with pytest.raises(KeyboardInterrupt):
            run_points(points, workers=1, cache=False,
                       checkpoint=ck_path, progress=_AbortAfter(2))
        assert os.path.exists(ck_path), \
            "snapshot must survive the crash"
        snapshot = json.load(open(ck_path))
        assert len(snapshot["completed"]) == 2

        stats = SweepRunStats()
        resumed = run_points(points, workers=1, cache=False,
                             checkpoint=ck_path, stats=stats)
        assert stats.resumed_points == 2
        assert stats.simulated == 2  # only the unfinished half
        assert not os.path.exists(ck_path), \
            "snapshot is discarded once the grid completes"

        clean = run_points(points, workers=1, cache=False)
        assert resumed == clean

    def test_corrupt_snapshot_resumes_nothing(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        with pytest.raises(KeyboardInterrupt):
            run_points(specs(3), workers=1, cache=False,
                       checkpoint=ck_path, progress=_AbortAfter(2))
        with open(ck_path, "a") as fh:
            fh.write("garbage")
        stats = SweepRunStats()
        run_points(specs(3), workers=1, cache=False,
                   checkpoint=ck_path, stats=stats)
        assert stats.resumed_points == 0
        assert stats.simulated == 3

    def test_stale_code_version_resumes_nothing(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        with pytest.raises(KeyboardInterrupt):
            run_points(specs(3), workers=1, cache=False,
                       checkpoint=ck_path, progress=_AbortAfter(2))
        ck = SweepCheckpoint(ck_path, version="v1-otherbuild")
        assert ck.load() == 0

    def test_prune_drops_foreign_points(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path / "ck.json"))
        ck.record("aaaa", {"x": 1})
        ck.record("bbbb", {"x": 2})
        ck.prune(["aaaa"])
        assert list(ck.completed) == ["aaaa"]

    def test_checkpoint_every_batches_flushes(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        points = specs(4)
        with pytest.raises(KeyboardInterrupt):
            run_points(points, workers=1, cache=False,
                       checkpoint=ck_path, checkpoint_every=3,
                       progress=_AbortAfter(2))
        # Two points finished but the flush threshold is 3: nothing
        # durable yet ... except the crash-path flush in the finally
        # block, which writes the pending records.
        snapshot = json.load(open(ck_path))
        assert len(snapshot["completed"]) == 2

    def test_checkpoint_and_cache_compose(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        cache_dir = str(tmp_path / "cache")
        points = specs(3)
        with pytest.raises(KeyboardInterrupt):
            run_points(points, workers=1, cache=True,
                       cache_dir=cache_dir, checkpoint=ck_path,
                       progress=_AbortAfter(2))
        stats = SweepRunStats()
        run_points(points, workers=1, cache=True, cache_dir=cache_dir,
                   checkpoint=ck_path, stats=stats)
        # checkpoint is consulted before the cache
        assert stats.resumed_points == 2
        assert stats.simulated == 1


class TestSIGKILLResume:
    """A real kill -9 of a CLI sweep, then resume to completion."""

    GRID = ["--apps", "sclust,x264", "--schemes",
            "SRAM-64TSB,MRAM-4TSB", "--workers", "1", "--no-cache",
            "--mesh-width", "4", "--capacity-scale", "0.015625",
            "--cycles", "12000", "--warmup", "1000"]

    def test_kill_and_resume(self, tmp_path):
        ck_path = str(tmp_path / "ck.json")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep",
             *self.GRID, "--checkpoint", ck_path],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.exists(ck_path):
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep finished before the kill; "
                                "raise --cycles")
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint never appeared")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        snapshot = json.load(open(ck_path))
        survived = len(snapshot["completed"])
        assert 1 <= survived < 4

        grid = SweepGrid(
            apps=["sclust", "x264"],
            schemes=(Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB),
            cycles=12000, warmup=1000,
            overrides={"mesh_width": 4, "capacity_scale": 0.015625},
        )
        stats = SweepRunStats()
        sweep = run_sweep(grid, workers=1, cache=False,
                          checkpoint=ck_path, stats=stats)
        assert stats.resumed_points == survived
        assert stats.simulated == 4 - survived
        assert len(sweep.data) == 2
        assert all(len(v) == 2 for v in sweep.data.values())
        assert not os.path.exists(ck_path)


class TestHardenedCache:
    def test_truncated_entry_evicts_and_recomputes(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        clean = run_points(points, workers=1, cache=True,
                           cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        blob = open(path).read()
        with open(path, "w") as fh:
            fh.write(blob[: len(blob) // 2])  # truncate mid-payload

        stats = SweepRunStats()
        results = run_points(points, workers=1, cache=True,
                             cache_dir=cache_dir, stats=stats)
        assert stats.cache_evictions == 1
        assert stats.cache_hits == 0
        assert stats.simulated == 1
        assert results == clean  # recomputed, not served corrupt
        # ... and the recompute repopulated a valid entry
        assert SweepCache(cache_dir).get(points[0].key()) is not None

    def test_tampered_payload_fails_digest_on_get(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        run_points(points, workers=1, cache=True, cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        payload = json.load(open(path))
        payload["result"]["cycles"] = 999999  # silent bit-flip
        with open(path, "w") as fh:
            json.dump(payload, fh)

        assert cache.get(points[0].key()) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)  # evicted, not left to fester

    def test_tampered_entry_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        points = specs(1)
        clean = run_points(points, workers=1, cache=True,
                           cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        payload = json.load(open(path))
        payload["result"]["cycles"] = 999999
        with open(path, "w") as fh:
            json.dump(payload, fh)

        stats = SweepRunStats()
        results = run_points(points, workers=1, cache=True,
                             cache_dir=cache_dir, stats=stats)
        assert stats.cache_evictions == 1
        assert results == clean

    def test_eviction_metric_emitted(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        cache_dir = str(tmp_path)
        points = specs(1)
        run_points(points, workers=1, cache=True, cache_dir=cache_dir)
        cache = SweepCache(cache_dir)
        path = cache.path_for(points[0].key())
        with open(path, "w") as fh:
            fh.write("{not json")
        registry = MetricsRegistry()
        run_points(points, workers=1, cache=True, cache_dir=cache_dir,
                   metrics=registry)
        assert registry.counter("sweep.cache.evictions").value == 1
        assert registry.counter("sweep.resumed").value == 0


class _FlakyPoint:
    """simulate_point stand-in that fails N times, then succeeds."""

    def __init__(self, failures, real):
        self.failures = failures
        self.real = real
        self.calls = 0

    def __call__(self, spec, recorder):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("transient worker wobble")
        return self.real(spec, recorder)


class TestPerPointRetry:
    def test_flaky_point_retries_and_succeeds(self, monkeypatch):
        clean = run_points(specs(1), workers=1, cache=False)
        flaky = _FlakyPoint(2, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        stats = SweepRunStats()
        results = run_points(specs(1), workers=1, cache=False,
                             stats=stats, max_retries=2,
                             retry_backoff=0.0)
        assert flaky.calls == 3
        assert stats.retried == 2
        assert results == clean

    def test_retries_exhausted_raises(self, monkeypatch):
        flaky = _FlakyPoint(10, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        with pytest.raises(RuntimeError, match="wobble"):
            run_points(specs(1), workers=1, cache=False,
                       max_retries=2, retry_backoff=0.0)
        assert flaky.calls == 3  # initial + 2 retries, then give up

    def test_backoff_is_bounded_exponential(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(parallel.time, "sleep", sleeps.append)
        flaky = _FlakyPoint(3, parallel.simulate_point)
        monkeypatch.setattr(parallel, "simulate_point", flaky)
        run_points(specs(1), workers=1, cache=False,
                   max_retries=3, retry_backoff=0.1)
        assert sleeps == [0.1, 0.2, 0.4]

    def test_invalid_retry_knobs_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_points(specs(1), workers=1, cache=False, max_retries=-1)
        with pytest.raises(ConfigError):
            run_points(specs(1), workers=1, cache=False,
                       retry_backoff=-0.5)
