"""Direct coverage of the CLI front door (``python -m repro``).

Exit-code contract: 0 on success (including a ``BrokenPipeError`` from a
closed pager), 2 for unreadable or malformed specs/manifests — with a
human ``error: ...`` message on stderr naming the problem, never a
traceback.  Success-path payload shapes (``run --json``, ``suite
--json``, ``gc --json``) are asserted structurally.
"""

import argparse
import json

import pytest

from repro.__main__ import _build_parser, main
from repro.api import StudySpec, SuiteSpec, list_studies
from repro.engine.cache import FileStore


def _spec_file(tmp_path, spec: StudySpec):
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return str(path)


def _suite_file(tmp_path, suite: SuiteSpec, name="manifest.json"):
    path = tmp_path / name
    path.write_text(suite.to_json(indent=2))
    return str(path)


SPEC = StudySpec(
    study="sample_size", params={"gammas": [0.7, 0.75]}, random_state=0
)


class TestRunCommand:
    def test_json_payload_shape_and_exit_code(self, tmp_path, capsys):
        assert main(["run", _spec_file(tmp_path, SPEC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "sample_size"
        assert payload["spec"] == SPEC.to_dict()
        assert payload["rows"]

    def test_missing_file_exits_2_with_message(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.json" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_study_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "nope", "params": {}}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown study" in err and "registered studies" in err

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "variance", "params": {"bogus": 1}}))
        assert main(["run", str(path)]) == 2
        assert "valid parameters" in capsys.readouterr().err

    def test_unknown_spec_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "variance", "jobs": 4}))
        assert main(["run", str(path)]) == 2
        assert "unknown StudySpec fields" in capsys.readouterr().err


class TestSuiteCommand:
    def test_summary_and_exit_code(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        assert main(["suite", _suite_file(tmp_path, suite)]) == 0
        captured = capsys.readouterr()
        assert "suite=s" in captured.out and "== only ==" in captured.out
        assert "[1/1] only" in captured.err

    def test_cache_dir_override_enables_resume(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        path = _suite_file(tmp_path, suite)
        store = str(tmp_path / "store")
        assert main(["suite", path, "--cache-dir", store]) == 0
        capsys.readouterr()
        assert main(["suite", path, "--cache-dir", store, "--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replayed"] == ["only"]

    def test_resume_without_cache_dir_exits_2(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        assert main(["suite", _suite_file(tmp_path, suite), "--resume"]) == 2
        assert "--resume requires a cache_dir" in capsys.readouterr().err

    def test_manifest_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["suite", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_required_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"name": "s"}))
        assert main(["suite", str(path)]) == 2
        assert "missing ['specs']" in capsys.readouterr().err

    def test_duplicate_member_names_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dups.json"
        path.write_text(
            json.dumps(
                {
                    "name": "s",
                    "specs": [
                        {"name": "a", "spec": SPEC.to_dict()},
                        {"name": "a", "spec": SPEC.to_dict()},
                    ],
                }
            )
        )
        assert main(["suite", str(path)]) == 2
        assert "duplicate suite spec name" in capsys.readouterr().err

    def test_unknown_member_study_exits_2_naming_the_member(
        self, tmp_path, capsys
    ):
        path = tmp_path / "unknown.json"
        path.write_text(
            json.dumps(
                {
                    "name": "s",
                    "specs": [{"name": "m1", "spec": {"study": "nope"}}],
                }
            )
        )
        assert main(["suite", str(path)]) == 2
        err = capsys.readouterr().err
        assert "suite spec 'm1'" in err and "unknown study" in err

    def test_malformed_entry_shape_exits_2(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"name": "s", "specs": [{"nome": "x"}]}))
        assert main(["suite", str(path)]) == 2
        assert "entry #0" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGCCommand:
    def test_prunes_to_budget_and_reports(self, tmp_path, capsys):
        store = FileStore(str(tmp_path / "store"))
        for key in ("aa11", "bb22", "cc33"):
            store.write(key, "x" * 64)
        assert main(
            ["gc", str(tmp_path / "store"), "--max-entries", "1", "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["removed_entries"] == 2
        assert stats["entries"] == 1
        assert len(FileStore(str(tmp_path / "store"))) == 1

    def test_human_output(self, tmp_path, capsys):
        store = FileStore(str(tmp_path / "store"))
        store.write("aa11", "x")
        assert main(["gc", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries" in out and "1 entries" in out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["gc", str(tmp_path / "nowhere")]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestListCommand:
    def test_lists_every_registered_study(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_studies():
            assert name in out

    def test_json_catalogue_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in catalogue] == list_studies()
        for entry in catalogue:
            assert set(entry) == {
                "name",
                "artefact",
                "description",
                "size_params",
                "smoke_params",
                "shard_param",
                "benchmark",
            }
            # smoke_params must round-trip into a runnable StudySpec.
            StudySpec(study=entry["name"], params=entry["smoke_params"])


class TestReportCommand:
    def _ran_suite(self, tmp_path):
        """Run a tiny suite against a cache dir; return (store, records)."""
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        store = tmp_path / "store"
        assert main(
            ["suite", _suite_file(tmp_path, suite), "--cache-dir", str(store)]
        ) == 0
        return store, store / "suites" / "s"

    def test_generates_reports_from_cache_alone(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "suite s: 1 member report(s)" in out
        for name in ("index.json", "index.md", "only.json", "only.md"):
            assert (store / "reports" / "s" / name).exists()

    def test_json_payload_shape(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "s"
        assert [m["name"] for m in payload["members"]] == ["only"]
        assert payload["members"][0]["rows"]

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no cache directory" in err

    def test_empty_cache_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no suite completion records" in err

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "ghost"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no completion records" in err

    def test_partial_suite_exits_2(self, tmp_path, capsys):
        store, records = self._ran_suite(tmp_path)
        (records / "only.json").unlink()
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "incomplete" in err
        assert "re-run the suite" in err

    def test_corrupted_record_exits_2(self, tmp_path, capsys):
        store, records = self._ran_suite(tmp_path)
        (records / "only.json").write_text("{broken")
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupted completion record" in err

    def test_report_writes_nothing_to_the_object_store(self, tmp_path, capsys):
        """Zero re-execution: reporting never stores a new measurement."""
        store, _ = self._ran_suite(tmp_path)
        objects = FileStore(str(store))
        before = (len(objects), objects.total_bytes)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 0
        objects = FileStore(str(store))
        assert (len(objects), objects.total_bytes) == before


class TestGCBudgetTypo:
    def test_negative_entry_budget_exits_2_and_deletes_nothing(
        self, tmp_path, capsys
    ):
        directory = str(tmp_path / "store")
        store = FileStore(directory)
        for key in ("aa11", "bb22", "cc33", "dd44", "ee55"):
            store.write(key, key)
        assert main(["gc", directory, "--max-entries", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--max-entries" in err
        assert len(FileStore(directory)) == 5


#: Parsed defaults of every subcommand, copied from the parser before the
#: options were declared once each: no flag, dest or default may move.
PINNED_DEFAULTS = {
    "run": {
        "command": "run", "spec": "spec.json", "n_jobs": None,
        "backend": None, "batch_size": None, "cache_dir": None,
        "json": False, "log_level": None,
    },
    "suite": {
        "command": "suite", "manifest": "manifest.json", "n_jobs": None,
        "backend": None, "batch_size": None, "cache_dir": None,
        "resume": False, "distributed": False, "shard_members": False,
        "lease_seconds": None, "queue_backend": None, "max_attempts": None,
        "stall_seconds": None, "json": False, "log_level": None,
    },
    "worker": {
        "command": "worker", "cache_dir": "store", "suite": None,
        "lease_seconds": 30.0, "poll_seconds": 0.5, "max_tasks": None,
        "timeout": None, "exit_when_done": False, "worker_id": None,
        "n_jobs": None, "backend": None, "batch_size": None,
        "queue_backend": None, "max_attempts": None, "stall_seconds": None,
        "log_level": None,
    },
    "queue": {
        "command": "queue", "cache_dir": "store", "suite": None,
        "queue_backend": None, "lease_seconds": 30.0, "json": False,
    },
    "gc": {
        "command": "gc", "cache_dir": "store", "max_bytes": None,
        "max_entries": None, "json": False,
    },
    "serve": {
        "command": "serve", "cache_dir": "store", "host": "127.0.0.1",
        "port": 8321, "n_jobs": None, "backend": None, "batch_size": None,
        "max_concurrent_studies": None, "queue_backend": None,
        "shard_members": False, "no_participate": False,
        "lease_seconds": 30.0, "max_attempts": None, "stall_seconds": None,
        "quiet": False, "log_level": None,
    },
    "trace": {
        "command": "trace", "cache_dir": "store", "suite": None,
        "json": False,
    },
    "report": {
        "command": "report", "cache_dir": "store", "suite": None,
        "json": False,
    },
    "list": {"command": "list", "json": False},
}

#: Every numeric option with a range, per subcommand that takes it, and
#: one out-of-range value for it.  ``--n-jobs`` has no range: any integer
#: is valid (negative = all cores).
OUT_OF_RANGE = [
    ("run", "--batch-size", "0"),
    ("suite", "--batch-size", "0"),
    ("suite", "--lease-seconds", "0"),
    ("suite", "--max-attempts", "0"),
    ("suite", "--stall-seconds", "-1"),
    ("worker", "--batch-size", "-2"),
    ("worker", "--lease-seconds", "-5"),
    ("worker", "--max-attempts", "0"),
    ("worker", "--stall-seconds", "0"),
    ("worker", "--poll-seconds", "-1"),
    ("worker", "--max-tasks", "0"),
    ("worker", "--timeout", "0"),
    ("queue", "--lease-seconds", "0"),
    ("gc", "--max-bytes", "0"),
    ("gc", "--max-entries", "-3"),
    ("serve", "--port", "70000"),
    ("serve", "--batch-size", "0"),
    ("serve", "--max-concurrent-studies", "0"),
    ("serve", "--lease-seconds", "0"),
    ("serve", "--max-attempts", "-1"),
    ("serve", "--stall-seconds", "0"),
]


def _positionals(command, tmp_path):
    """Valid positionals for ``command``: an existing cache dir, or a
    spec/manifest path (the range checks run before it is read)."""
    if command in ("run", "suite"):
        return [str(tmp_path / "input.json")]
    return [] if command == "list" else [str(tmp_path)]


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_parsed_defaults_are_pinned(self, command):
        positionals = {"run": ["spec.json"], "suite": ["manifest.json"]}.get(
            command, [] if command == "list" else ["store"]
        )
        args = _build_parser().parse_args([command, *positionals])
        assert vars(args) == PINNED_DEFAULTS[command]

    def test_every_ranged_numeric_option_is_covered(self):
        parser = _build_parser()
        (subparsers,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        numeric = {
            (command, action.option_strings[0])
            for command, subparser in subparsers.choices.items()
            for action in subparser._actions
            if action.type in (int, float)
            and action.option_strings != ["--n-jobs"]
        }
        assert numeric == {(cmd, flag) for cmd, flag, _ in OUT_OF_RANGE}

    @pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE)
    def test_out_of_range_value_exits_2_naming_the_flag(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{command} started despite {flag} {value}")

        # A missed check must fail here, not serve or poll forever.
        monkeypatch.setattr("repro.serve.serve", unreachable)
        monkeypatch.setattr("repro.sched.Worker.run", unreachable)
        argv = [command, *_positionals(command, tmp_path), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err.splitlines()[0]
        assert "Traceback" not in err
