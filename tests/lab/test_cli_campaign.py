"""End-to-end tests of ``python -m repro campaign`` (in-process)."""

import json

import pytest

from repro.__main__ import main
from repro.lab.store import _OPEN_STORES


@pytest.fixture()
def lab_store(monkeypatch, tmp_path):
    """Point the default store at a fresh file for each test."""
    path = str(tmp_path / "store.sqlite")
    monkeypatch.setenv("REPRO_LAB_STORE", path)
    yield path
    store = _OPEN_STORES.pop(path, None)
    if store is not None:
        store.close()


def _campaign(*extra):
    return main(["campaign", "--scale", "test", "--quiet",
                 "--benchmarks", "histogram", "--versions", "native",
                 "--injections", "20", *extra])


def _report(path):
    with open(path) as fh:
        return json.load(fh)


class TestCampaignCommand:
    def test_second_run_is_all_store_hits(self, lab_store, tmp_path, capsys):
        first_json = str(tmp_path / "first.json")
        second_json = str(tmp_path / "second.json")
        assert _campaign("--json", first_json) == 0
        assert _campaign("--json", second_json) == 0
        capsys.readouterr()

        first, second = _report(first_json), _report(second_json)
        assert first["store"]["injections_executed"] == 20
        assert second["store"]["injections_executed"] == 0
        assert second["store"]["hit_rate"] == 1.0
        assert second["cells"][0]["counts"] == first["cells"][0]["counts"]

    def test_interrupt_then_resume_matches_fresh_run(
            self, lab_store, tmp_path, monkeypatch, capsys):
        # Fresh, uninterrupted reference in a separate store.
        ref_json = str(tmp_path / "ref.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "native",
                     "--injections", "20",
                     "--store", str(tmp_path / "ref.sqlite"),
                     "--json", ref_json]) == 0

        assert _campaign("--interrupt-after-shards", "1") == 130
        out = capsys.readouterr().out
        assert "--resume" in out

        resumed_json = str(tmp_path / "resumed.json")
        assert _campaign("--resume", "--json", resumed_json) == 0
        out = capsys.readouterr().out
        assert "resuming interrupted campaign" in out

        reference, resumed = _report(ref_json), _report(resumed_json)
        assert resumed["cells"][0]["counts"] == reference["cells"][0]["counts"]
        assert resumed["cells"][0]["rates"] == reference["cells"][0]["rates"]
        assert resumed["store"]["shards_from_store"] == 1

    def test_resume_manifest_naming_retired_engine_runs_compiled(
            self, lab_store, tmp_path, monkeypatch, capsys):
        # Manifests written before the record-only "decoded" engine was
        # retired name it; --resume runs them on "compiled" and still
        # replays the banked shard (engines are not in store keys).
        import sqlite3

        import repro.lab.cli as cli_mod

        assert _campaign("--interrupt-after-shards", "1") == 130
        conn = sqlite3.connect(lab_store)
        (spec_text,) = conn.execute(
            "SELECT spec FROM runs WHERE status = 'running'").fetchone()
        spec = json.loads(spec_text)
        assert spec["engine"] == "compiled"
        spec["engine"] = "decoded"
        conn.execute("UPDATE runs SET spec = ? WHERE status = 'running'",
                     (json.dumps(spec, sort_keys=True),))
        conn.commit()
        conn.close()

        engines = []
        real_config = cli_mod.CampaignConfig

        def spy(**kwargs):
            engines.append(kwargs["engine"])
            return real_config(**kwargs)

        monkeypatch.setattr(cli_mod, "CampaignConfig", spy)
        resumed_json = str(tmp_path / "resumed.json")
        assert _campaign("--resume", "--json", resumed_json) == 0
        assert "resuming interrupted campaign" in capsys.readouterr().out
        assert engines == ["compiled"]
        resumed = _report(resumed_json)
        assert resumed["store"]["shards_from_store"] == 1
        assert resumed["cells"][0]["injections_used"] == 20

    def test_resume_with_nothing_pending_starts_fresh(self, lab_store, capsys):
        assert _campaign("--resume") == 0
        out = capsys.readouterr().out
        assert "nothing to resume" in out

    def test_unknown_version_fails_cleanly(self, lab_store, capsys):
        with pytest.raises(SystemExit):
            _campaign("--versions", "sgx")

    def test_adaptive_flags_accepted(self, lab_store, tmp_path, capsys):
        report_json = str(tmp_path / "adaptive.json")
        assert _campaign("--ci-target", "0.5", "--json", report_json) == 0
        capsys.readouterr()
        report = _report(report_json)
        assert report["spec"]["ci_target"] == 0.5
        assert report["cells"][0]["ci_halfwidth"] is not None

    def test_batch_matches_sequential_counts(self, tmp_path, capsys):
        # --batch is a per-worker execution knob: same store-less
        # counts as --batch 1, and its shards land in the same store
        # rows (separate stores here so both runs actually execute).
        seq_json = str(tmp_path / "seq.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "native",
                     "--injections", "20",
                     "--store", str(tmp_path / "seq.sqlite"),
                     "--json", seq_json]) == 0
        batched_json = str(tmp_path / "batched.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "native",
                     "--injections", "20", "--batch", "8",
                     "--store", str(tmp_path / "batched.sqlite"),
                     "--json", batched_json]) == 0
        capsys.readouterr()
        seq, batched = _report(seq_json), _report(batched_json)
        assert batched["cells"][0]["counts"] == seq["cells"][0]["counts"]
        assert batched["spec"]["batch"] == 8
        assert batched["store"]["injections_executed"] == 20

    def test_json_reports_converged_injections(self, lab_store, tmp_path,
                                               capsys):
        # Injections classified at exact reconvergence are counted per
        # cell and in the store totals.
        out = str(tmp_path / "elzar.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "elzar",
                     "--injections", "20", "--json", out]) == 0
        capsys.readouterr()
        report = _report(out)
        cell = report["cells"][0]
        assert cell["injections_converged"] > 0
        assert (report["store"]["injections_converged"]
                == cell["injections_converged"])

    def test_batch_rejects_nonpositive(self, lab_store, capsys):
        with pytest.raises(SystemExit) as exc:
            _campaign("--batch", "0")
        assert exc.value.code == 2
        assert "--batch must be >= 1" in capsys.readouterr().err


class TestMainDispatch:
    def test_list_includes_campaign(self, capsys):
        assert main(["list"]) == 0
        assert "campaign" in capsys.readouterr().out.split()

    def test_fig13_accepts_workers(self, lab_store, capsys):
        assert main(["fig13", "--scale", "test", "--injections", "8",
                     "--workers", "1"]) == 0
        assert "fig13" in capsys.readouterr().out
