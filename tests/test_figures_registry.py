"""Tests for the figure registry, provenance, trajectory and dashboard."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import provenance, registry, trajectory
from repro.experiments.dashboard import render_dashboard, svg_chart
from repro.obs.metrics import MetricsRegistry, slo_snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent
ALL_IDS = registry.registered_ids()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Smoke-scale inputs with a synthetic two-record trajectory store."""
    traj = tmp_path_factory.mktemp("traj") / "trajectory.jsonl"
    for name in ("BENCH_kernels.json", "BENCH_serve.json"):
        payload = json.loads((REPO_ROOT / name).read_text())
        trajectory.append(traj, trajectory.record_for(payload))
    return registry.BuildInputs(scale="smoke", trajectory=traj)


@pytest.fixture(scope="module")
def built():
    """Cross-test cache so each figure builds exactly once per run."""
    return {}


def _artifact(fid, inputs, built):
    if fid not in built:
        built[fid] = registry.build_figure(fid, inputs)
    return built[fid]


@pytest.mark.parametrize("fid", ALL_IDS)
class TestEveryRegisteredFigure:
    def test_builds_and_self_checks(self, fid, inputs, built):
        art = _artifact(fid, inputs, built)
        summary = registry.self_check(art)
        assert summary["rows"] > 0
        assert art.fid == fid
        assert art.category in (
            "paper", "bench", "observability", "trajectory"
        )

    def test_vega_lite_spec_shape(self, fid, inputs, built):
        spec = registry.vega_lite_spec(_artifact(fid, inputs, built))
        assert spec["$schema"] == registry.VEGA_LITE_SCHEMA
        assert spec["data"]["values"], "spec must inline its data"
        assert "mark" in spec and "encoding" in spec
        for channel in ("x", "y"):
            assert spec["encoding"][channel]["field"]
        json.dumps(spec)  # self-contained and serializable

    def test_csv_round_trips(self, fid, inputs, built):
        art = _artifact(fid, inputs, built)
        text = registry.rows_to_csv(art.rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(art.rows)
        assert set(parsed[0]) == {
            key for row in art.rows for key in row
        }


class TestRegistryLookup:
    def test_unknown_id_is_a_located_error(self):
        with pytest.raises(registry.UnknownFigureError) as exc:
            registry.build_figure("fig99")
        assert "fig99" in str(exc.value)
        assert "registered ids" in str(exc.value)

    def test_get_returns_entry(self):
        fig = registry.get("kernels-e2e")
        assert fig.category == "bench"

    def test_registry_covers_paper_and_bench(self):
        assert {"fig10", "fig16", "kernels-micro", "serve-scaling",
                "slo-quantiles", "perf-trajectory"} <= set(ALL_IDS)


class TestProvenance:
    def test_collect_shape(self):
        rec = provenance.collect()
        assert set(rec) == {
            "sha", "branch", "dirty", "date", "cpu_count", "hostname",
            "python",
        }
        assert rec["date"].endswith("Z")
        assert rec["cpu_count"] >= 1

    def test_stamp_writes_meta_in_place(self):
        payload = {"scale": "tiny", "meta": {"k": 1}}
        assert provenance.stamp(payload) is payload
        assert payload["meta"]["k"] == 1
        assert "sha" in payload["meta"]["provenance"]

    def test_git_facts_degrade_outside_a_repo(self, tmp_path):
        rec = provenance.git_describe(tmp_path)
        assert rec["sha"] == "unknown"
        assert rec["branch"] == "unknown"

    def test_clean_tree_is_not_dirty(self, tmp_path):
        import subprocess

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "f.txt").write_text("x\n")
        git("add", "f.txt")
        git("commit", "-qm", "init")
        assert provenance.git_describe(tmp_path)["dirty"] is False
        (tmp_path / "f.txt").write_text("y\n")
        assert provenance.git_describe(tmp_path)["dirty"] is True


class TestTrajectory:
    RECORD = {
        "bench": "kernels", "scale": "tiny", "sha": "abc123",
        "branch": "main", "date": "2026-08-07T00:00:00Z",
        "cpu_count": 4, "hostname": "box",
        "metrics": {"e2e_speedup_geomean": 10.0},
    }

    def test_append_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert trajectory.append(path, dict(self.RECORD)) == "appended"
        assert trajectory.append(path, dict(self.RECORD)) == "unchanged"
        assert len(trajectory.load(path)) == 1

    def test_same_key_fresher_numbers_replace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trajectory.append(path, dict(self.RECORD))
        fresher = dict(self.RECORD, metrics={"e2e_speedup_geomean": 11.0})
        assert trajectory.append(path, fresher) == "replaced"
        records = trajectory.load(path)
        assert len(records) == 1
        assert records[0]["metrics"]["e2e_speedup_geomean"] == 11.0

    def test_new_sha_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trajectory.append(path, dict(self.RECORD))
        trajectory.append(path, dict(self.RECORD, sha="def456"))
        assert len(trajectory.load(path)) == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        assert trajectory.load(tmp_path / "absent.jsonl") == []

    def test_load_locates_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            trajectory.load(path)

    def test_record_for_rejects_unknown_payloads(self):
        with pytest.raises(ValueError, match="neither"):
            trajectory.record_for({"something": "else"})

    def test_record_for_prefers_stamped_provenance(self):
        payload = {
            "scale": "tiny", "end_to_end": [],
            "meta": {"provenance": {"sha": "feedface", "branch": "x"}},
        }
        rec = trajectory.record_for(payload)
        assert rec["sha"] == "feedface"
        assert rec["branch"] == "x"

    def test_empty_trajectory_is_a_located_figure_error(self, tmp_path):
        inputs = registry.BuildInputs(trajectory=tmp_path / "empty.jsonl")
        with pytest.raises(registry.FigureInputError, match="perf-trajectory"):
            registry.build_figure("perf-trajectory", inputs)


class TestSloSnapshot:
    def _registry_with_traffic(self):
        reg = MetricsRegistry()
        for elapsed in (0.01, 0.02, 0.5):
            reg.observe("repro_query_seconds", elapsed, {"operator": "FSD"})
        reg.inc("repro_serve_requests_total", 3,
                {"route": "/query", "status": "200"})
        reg.inc("repro_slo_burn_total", 2, {"slo": "latency"})
        return reg

    def test_snapshot_shape_matches_status_body(self):
        snap = slo_snapshot(self._registry_with_traffic(), 250.0)
        assert set(snap) == {
            "latency_ms_target", "latency_seconds", "degraded_ratio",
            "error_ratio", "burn", "overflow", "clamped",
        }
        assert snap["latency_ms_target"] == 250.0
        assert set(snap["latency_seconds"]["FSD"]) == {"p50", "p95", "p99"}
        assert snap["burn"] == {"latency": 2.0}
        # no observation above the top bucket bound -> honest and empty
        assert snap["overflow"] == {} and snap["clamped"] == {}

    def test_slo_rows_accepts_status_body(self):
        snap = slo_snapshot(self._registry_with_traffic(), 250.0)
        rows, burn = registry.slo_rows({"slo": snap})
        assert rows[0]["operator"] == "FSD"
        assert rows[0]["p99_ms"] > rows[0]["p50_ms"] > 0
        assert burn == {"latency": 2.0}

    def test_slo_rows_accepts_slo_json_shape(self):
        rows, burn = registry.slo_rows({
            "latency_ms": {"SSD": {"p50": 1.0, "p95": 2.0, "p99": 3.0}},
            "burn": {"error": 1},
        })
        assert rows == [
            {"operator": "SSD", "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0}
        ]
        assert burn == {"error": 1}

    def test_slo_rows_rejects_garbage(self):
        with pytest.raises(registry.FigureInputError):
            registry.slo_rows({"nope": 1})


class TestDashboard:
    def test_render_is_self_contained_html(self, inputs, built):
        arts = [
            _artifact("kernels-e2e", inputs, built),
            _artifact("perf-trajectory", inputs, built),
        ]
        verdict = {
            "kind": "kernels", "baseline": "a.json", "current": "b.json",
            "informational": False,
            "gates": [
                {"gate": "SSD", "status": "pass", "measured": 0.5,
                 "baseline": 0.5, "detail": "+0.0%"},
                {"gate": "PSD", "status": "skip", "measured": None,
                 "baseline": None, "detail": "SKIPPED (cpu_count=1)"},
            ],
        }
        html = render_dashboard(
            arts, verdicts=[verdict],
            provenance_record=provenance.collect(), scale="smoke",
        )
        assert html.startswith("<!doctype html>")
        for art in arts:
            assert f'id="{art.fid}"' in html
            assert f"data/{art.fid}.csv" in html
        assert "Bench gates" in html
        assert "<svg" in html
        assert "prefers-color-scheme: dark" in html
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert 'src="http' not in html and "@import" not in html

    def test_svg_chart_draws_marks(self, inputs, built):
        line_svg = svg_chart(_artifact("perf-trajectory", inputs, built))
        assert "<polyline" in line_svg
        bar_svg = svg_chart(_artifact("kernels-e2e", inputs, built))
        assert "<rect" in bar_svg
        assert "<title>" in bar_svg  # native tooltips


class TestFiguresCli:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        for fid in ("fig10", "kernels-micro", "perf-trajectory"):
            assert fid in out

    def test_no_ids_is_usage_error(self, capsys):
        assert main(["figures"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_id_is_usage_error(self, capsys):
        assert main(["figures", "fig99", "--check"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "kernels-micro", "--check"]) == 0
        assert "self-check ok" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_build_writes_csv_spec_and_dashboard(self, tmp_path, capsys):
        out_dir = tmp_path / "dash"
        assert main([
            "figures", "kernels-e2e", "slo-quantiles",
            "--out-dir", str(out_dir),
        ]) == 0
        assert (out_dir / "index.html").exists()
        for fid in ("kernels-e2e", "slo-quantiles"):
            assert (out_dir / "data" / f"{fid}.csv").exists()
            spec = json.loads(
                (out_dir / "specs" / f"{fid}.vl.json").read_text()
            )
            assert spec["$schema"] == registry.VEGA_LITE_SCHEMA

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        assert main([
            "figures", "kernels-e2e",
            "--kernels", str(tmp_path / "absent.json"),
            "--check",
        ]) == 1
        assert "not found" in capsys.readouterr().err

    def test_verdict_lands_on_dashboard(self, tmp_path):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps({
            "kind": "kernels", "baseline": "a", "current": "b",
            "informational": False,
            "gates": [{"gate": "SSD", "status": "fail", "measured": 1.0,
                       "baseline": 0.5, "detail": "regressed"}],
        }))
        out_dir = tmp_path / "dash"
        assert main([
            "figures", "kernels-micro", "--out-dir", str(out_dir),
            "--verdict", str(verdict),
        ]) == 0
        html = (out_dir / "index.html").read_text()
        assert "Bench gates" in html and "regressed" in html

    def test_client_status_accepts_slo_json_format(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["client", "status", "--format", "slo-json"]
        )
        assert args.format == "slo-json"
