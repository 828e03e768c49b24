"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    out = tmp_path_factory.mktemp("deploy")
    code = main(
        [
            "train",
            "--dataset", "kdd",
            "--rows", "3000",
            "--partitions", "12",
            "--seed", "4",
            "--train-queries", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestInfo:
    def test_lists_datasets(self, capsys):
        assert main(["info"]) == 0
        captured = capsys.readouterr().out
        for dataset in ("tpch", "tpcds", "aria", "kdd"):
            assert dataset in captured


class TestTrain:
    def test_writes_deployment_files(self, deployment):
        assert (deployment / "manifest.json").exists()
        assert (deployment / "stats.ps3stats").exists()
        assert (deployment / "model.json").exists()

    def test_manifest_contents(self, deployment):
        manifest = json.loads((deployment / "manifest.json").read_text())
        assert manifest["dataset"] == "kdd"
        assert manifest["partitions"] == 12
        assert manifest["layout"] == "count"  # the dataset default

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "nope", "--out", str(tmp_path)])

    def test_negative_seed_exits_with_typed_error(self, tmp_path, capsys):
        out = tmp_path / "deploy"
        code = main(["train", "--dataset", "kdd", "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "seed" in captured.err
        assert "building" not in captured.out and not out.exists()


class TestQuery:
    def test_answers_sql(self, deployment, capsys):
        code = main(
            [
                "query",
                "--deploy", str(deployment),
                "--budget", "0.5",
                "--exact",
                "SELECT SUM(src_bytes), COUNT(*) GROUP BY protocol_type",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "SUM(src_bytes)" in captured
        assert "avg rel err" in captured
        assert "partitions" in captured

    def test_absolute_budget(self, deployment, capsys):
        code = main(
            [
                "query",
                "--deploy", str(deployment),
                "--budget", "3",
                "--exact",
                "SELECT COUNT(*)",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        # A predicate-free COUNT(*) makes all partitions look identical,
        # so clustering may collapse to fewer reads than the budget — the
        # weighted estimate stays exact regardless.
        assert "/12 partitions" in captured
        assert "avg rel err 0.0000" in captured

    def test_bad_sql_reports_error(self, deployment, capsys):
        code = main(
            ["query", "--deploy", str(deployment), "SELECT FROM nothing"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_mean_errors(self, deployment, capsys):
        code = main(
            [
                "evaluate",
                "--deploy", str(deployment),
                "--budget", "0.5",
                "--queries", "4",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "avg rel err" in captured
        assert "4 random workload queries" in captured


class TestMetrics:
    def test_drives_queries_and_prints_a_snapshot(self, deployment, capsys):
        code = main(
            ["metrics", "--deploy", str(deployment), "--queries", "3"]
        )
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["engine.sweep.calls"] >= 1


class TestBudgetValidation:
    """``--budget`` resolves through ``repro.api.resolve_budget``: what
    the API refuses, the CLI refuses — typed, exit 2, nothing read."""

    COMMANDS = {
        "query": ["SELECT COUNT(*)"],
        "evaluate": ["--queries", "2"],
        "metrics": ["--queries", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("budget", ["0", "-3", "nan", "inf"])
    def test_bad_budget_exits_with_typed_error(
        self, deployment, capsys, command, budget
    ):
        # Was: 0 and -3 silently read one partition; nan died with an
        # untyped ValueError traceback.
        code = main(
            [command, "--deploy", str(deployment), f"--budget={budget}"]
            + self.COMMANDS[command]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "budget" in captured.err
        assert "partitions" not in captured.out

    @pytest.mark.parametrize(
        "budget, read",
        [("0.5", "6 partitions"), ("1.0", "1 partitions"), ("4", "4 partitions")],
    )
    def test_documented_convention_kept(self, deployment, capsys, budget, read):
        """Below 1 a fraction of the 12 partitions, from 1 up a count."""
        code = main(
            [
                "evaluate",
                "--deploy", str(deployment),
                "--budget", budget,
                "--queries", "1",
            ]
        )
        assert code == 0
        assert f"@ {read}" in capsys.readouterr().out


class TestOneRoute:
    def test_query_prints_the_scalar_composition(
        self, deployment, capsys, monkeypatch
    ):
        """``ps3 query`` answers through ``PS3.query``, hence through
        ``answer_selections``; what it prints is the scalar composition
        of the selection it made."""
        import repro.api as api
        from dict_walk import combine_answers, finalize_answer
        from scalar_oracle import execute_on_partition

        calls = []
        real = api.answer_selections

        def recording(ptable, pairs):
            finals = real(ptable, pairs)
            calls.append((ptable, pairs, finals))
            return finals

        monkeypatch.setattr(api, "answer_selections", recording)
        code = main(
            [
                "query",
                "--deploy", str(deployment),
                "--budget", "0.5",
                "SELECT SUM(src_bytes), AVG(duration) WHERE src_bytes > 10 "
                "GROUP BY protocol_type",
            ]
        )
        assert code == 0
        ((ptable, [(query, selection)], [final]),) = calls
        answers = [
            execute_on_partition(ptable[c.partition], query) for c in selection
        ]
        expected = finalize_answer(query, combine_answers(answers, selection))
        assert expected
        assert list(final.keys()) == list(expected.keys())
        for key in expected:
            assert final[key].tobytes() == expected[key].tobytes()
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows == [
            "\t".join([repr(key)] + [f"{v:.4f}" for v in expected[key]])
            for key in sorted(expected, key=repr)
        ]


class TestAppendCheckpoint:
    """The WAL-backed append/checkpoint lifecycle, including recovery."""

    QUERY = "SELECT COUNT(*) GROUP BY protocol_type"

    @pytest.fixture()
    def deploy(self, deployment, tmp_path):
        """A private copy: these tests mutate the deployment directory."""
        copy = tmp_path / "deploy"
        shutil.copytree(deployment, copy)
        return copy

    def _count_answer(self, capsys, deploy):
        assert main(
            ["query", "--deploy", str(deploy), "--budget", "1.0", self.QUERY]
        ) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if "partitions" not in line]

    def test_append_journals_and_serves(self, deploy, capsys):
        code = main(["append", "--deploy", str(deploy), "--rows", "400"])
        assert code == 0
        assert "WAL record 1" in capsys.readouterr().out
        assert (deploy / "stats.ps3wal").exists()
        manifest = json.loads((deploy / "manifest.json").read_text())
        assert manifest["appends"][0]["rows"] == 400
        assert manifest["appends"][0]["seq"] == 1
        # The appended partition is served (13 partitions now, was 12).
        assert main(
            ["query", "--deploy", str(deploy), "--budget", "1.0", self.QUERY]
        ) == 0
        assert "/13 partitions" in capsys.readouterr().out

    def test_checkpoint_folds_and_answers_identically(self, deploy, capsys):
        assert main(["append", "--deploy", str(deploy), "--rows", "400"]) == 0
        capsys.readouterr()
        before = self._count_answer(capsys, deploy)
        wal_size = (deploy / "stats.ps3wal").stat().st_size
        assert main(["checkpoint", "--deploy", str(deploy)]) == 0
        out = capsys.readouterr().out
        assert "folded 1 journaled batches" in out
        # Journal truncated back to its bare header.
        assert (deploy / "stats.ps3wal").stat().st_size < wal_size
        assert self._count_answer(capsys, deploy) == before

    def test_crash_between_wal_and_manifest_recovers(self, deploy, capsys):
        """An append that died after the fsync but before the manifest
        update: the batch replays from the journal, and the next
        checkpoint reconciles the manifest entry from the record meta."""
        assert main(["append", "--deploy", str(deploy), "--rows", "400"]) == 0
        capsys.readouterr()
        with_entry = self._count_answer(capsys, deploy)
        manifest = json.loads((deploy / "manifest.json").read_text())
        entry = manifest["appends"].pop()  # simulate the crash
        (deploy / "manifest.json").write_text(json.dumps(manifest))
        assert self._count_answer(capsys, deploy) == with_entry
        assert main(["checkpoint", "--deploy", str(deploy)]) == 0
        capsys.readouterr()
        reconciled = json.loads((deploy / "manifest.json").read_text())
        assert reconciled["appends"] == [entry]
        assert self._count_answer(capsys, deploy) == with_entry

    def test_torn_wal_tail_degrades_to_last_batch(self, deploy, capsys):
        assert main(["append", "--deploy", str(deploy), "--rows", "400"]) == 0
        intact = (deploy / "stats.ps3wal").stat().st_size
        assert main(["append", "--deploy", str(deploy), "--rows", "300"]) == 0
        capsys.readouterr()
        raw = (deploy / "stats.ps3wal").read_bytes()
        (deploy / "stats.ps3wal").write_bytes(raw[: intact + 25])
        with pytest.warns(Warning, match="torn"):
            assert main(
                [
                    "query",
                    "--deploy", str(deploy),
                    "--budget", "1.0",
                    self.QUERY,
                ]
            ) == 0
        # Batch 1 survives; the torn batch 2 is dropped.
        assert "/13 partitions" in capsys.readouterr().out

    def test_checkpoint_prunes_orphaned_manifest_entries(
        self, deploy, capsys
    ):
        """An entry whose journal record was lost (bit-rot, not a crash
        — a crash can't leave the entry without the fsynced record) must
        not survive checkpoint, or the next append would reuse its seq
        and the regenerated table would desync from the statistics."""
        assert main(["append", "--deploy", str(deploy), "--rows", "300"]) == 0
        capsys.readouterr()
        # Wipe the record wholesale, leaving a valid empty journal.
        wal = deploy / "stats.ps3wal"
        wal.write_bytes(wal.read_bytes()[:16])
        assert main(["checkpoint", "--deploy", str(deploy)]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 append entries" in out
        manifest = json.loads((deploy / "manifest.json").read_text())
        assert manifest["appends"] == []
        # The freed sequence number is safe to reuse.
        assert main(["append", "--deploy", str(deploy), "--rows", "200"]) == 0
        capsys.readouterr()
        manifest = json.loads((deploy / "manifest.json").read_text())
        assert [e["seq"] for e in manifest["appends"]] == [1]
        assert main(
            ["query", "--deploy", str(deploy), "--budget", "1.0", self.QUERY]
        ) == 0
        assert "/13 partitions" in capsys.readouterr().out
        assert main(["checkpoint", "--deploy", str(deploy)]) == 0
        capsys.readouterr()
        assert self._count_answer(capsys, deploy)
