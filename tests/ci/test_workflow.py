"""Structural pin of the GitHub Actions workflow.

An ``act``-style dry check that runs in tier-1: the workflow file must
parse, the fast job must run the documented tier-1 command *verbatim*,
the lint gate must run both ``ruff check`` and ``ruff format --check``,
and the bench-rot guard must invoke the bench import guard explicitly.
This keeps ``.github/workflows/ci.yml``, ROADMAP.md, and the README from
drifting apart.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

TIER1_COMMAND = (
    'PYTHONPATH=src python -m pytest -x -q -m "not slow" --durations=10'
)


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def jobs(workflow):
    return workflow["jobs"]


def _run_lines(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_parses_and_triggers(workflow):
    # YAML 1.1 reads the bare key ``on`` as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_tier1_job_runs_documented_command_verbatim(jobs):
    assert TIER1_COMMAND in _run_lines(jobs["tier-1"])


def test_tier1_matrix_covers_two_python_versions(jobs):
    versions = jobs["tier-1"]["strategy"]["matrix"]["python-version"]
    assert len(versions) == 2
    assert len(set(versions)) == 2


def test_slow_suites_have_their_own_job(jobs):
    lines = _run_lines(jobs["slow"])
    assert any('-m "slow"' in line for line in lines)
    # The fast gate must stay fast: slow runs on one version, unmatrixed.
    assert "strategy" not in jobs["slow"]


def test_lint_gate_checks_and_formats(jobs):
    steps = {
        step.get("name", step.get("uses")): step
        for step in jobs["lint"]["steps"]
    }
    check = steps["ruff check"]
    assert check["run"] == "ruff check ."
    assert "continue-on-error" not in check  # the lint gate blocks
    fmt = steps["ruff format"]
    assert fmt["run"] == "ruff format --check ."
    # Both lint steps block. The format step spent its first release
    # advisory; reintroducing continue-on-error (silently un-gating
    # formatting) should be a deliberate edit here, not a drive-by.
    assert "continue-on-error" not in fmt


def test_bench_rot_guard_runs_import_guard_explicitly(jobs):
    """Every ``benchmarks/bench_*.py`` must import: the guard that covers
    the paper's figure and table scripts is a named bench-rot step."""
    assert (
        "PYTHONPATH=src python -m pytest -x -q tests/bench/test_bench_imports.py"
        in _run_lines(jobs["bench-rot"])
    )


def test_concurrency_cancels_superseded_runs(workflow):
    """Pushes to the same ref cancel in-flight runs instead of queueing."""
    concurrency = workflow["concurrency"]
    assert "${{ github.ref }}" in concurrency["group"]
    assert concurrency["cancel-in-progress"] is True


def test_repo_benchmark_selfcheck_is_a_bench_rot_step(jobs):
    """The e2e benchmark traces ``src/`` callables by name; its self-check
    (``trace.missing == []``) must run in CI, since tier-1 does not."""
    assert (
        "PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q"
        in _run_lines(jobs["bench-rot"])
    )


def test_coverage_job_reports_without_gating(jobs):
    lines = _run_lines(jobs["coverage"])
    covered = [line for line in lines if "--cov=repro" in line]
    assert covered, "coverage job lost its pytest-cov run"
    assert '-m "not slow"' in covered[0]  # the tier-1 set, not slow
    assert all("--cov-fail-under" not in line for line in lines), (
        "coverage grew a threshold; that is a deliberate edit — update "
        "this pin and the workflow comment together"
    )
    assert any("GITHUB_STEP_SUMMARY" in line for line in lines), (
        "coverage report no longer lands in the job summary"
    )


def test_killpoint_sweep_is_a_named_tier1_gate(jobs):
    """The crash-safety sweep runs as its own step in the fast gate.

    The fast subset (`-m "not slow"`) of tests/storage/test_killpoints.py
    must be invoked explicitly, and the exhaustive variants ride the
    slow job's blanket `-m "slow"` run.
    """
    lines = _run_lines(jobs["tier-1"])
    sweep = [
        line for line in lines if "tests/storage/test_killpoints.py" in line
    ]
    assert sweep, "tier-1 lost its explicit kill-point sweep step"
    assert '-m "not slow"' in sweep[0]


def test_serving_fault_sweep_is_a_named_tier1_gate(jobs):
    """The serving-resilience sweep runs as its own step in the fast gate.

    The fast subset (`-m "not slow"`) of
    tests/engine/test_serving_faults.py must be invoked explicitly, so an
    overload-resilience regression is its own red gate; the exhaustive
    enumerations ride the slow job's blanket `-m "slow"` run.
    """
    lines = _run_lines(jobs["tier-1"])
    sweep = [
        line
        for line in lines
        if "tests/engine/test_serving_faults.py" in line
    ]
    assert sweep, "tier-1 lost its explicit serving fault sweep step"
    assert '-m "not slow"' in sweep[0]


def test_every_python_setup_uses_pip_caching(jobs):
    for name, job in jobs.items():
        setups = [
            step
            for step in job["steps"]
            if "setup-python" in step.get("uses", "")
        ]
        assert setups, f"job {name!r} never sets up python"
        for step in setups:
            assert step["with"]["cache"] == "pip", name
            assert step["with"]["cache-dependency-path"] == "pyproject.toml"


BYTE_IDENTITY_SUITES = (
    "tests/sketches/test_seal_plane.py",
    "tests/storage/test_checkpoint_encoding.py",
    "tests/ml/test_forest_golden.py",
    "tests/core/test_pick_memo.py",
    "tests/core/test_cold_pick_golden.py",
    "tests/engine/test_online_answer_identity.py",
    "tests/engine/test_subset_range_reads.py",
    "tests/test_exact_answers.py",
    "tests/engine/test_served_equals_query_many.py",
)


def test_byte_identity_goldens_are_a_named_tier1_gate(jobs):
    """The suites that pin sketch, bundle and forest bytes, memoized
    selections, cold picks, online answers, subset executions, exact
    answers and served batches run as one named step of the fast gate,
    so a speed-up that drifts a byte or a pick is its own red gate; the
    workflow header names each."""
    steps = {step.get("name"): step for step in jobs["tier-1"]["steps"]}
    step = steps.get("Byte-identity goldens")
    assert step is not None, "tier-1 lost its byte-identity goldens step"
    assert "continue-on-error" not in step
    assert step["run"].startswith("PYTHONPATH=src python -m pytest -x -q ")
    for suite in BYTE_IDENTITY_SUITES:
        assert suite in step["run"].split(), suite
        assert (WORKFLOW.parents[2] / suite).is_file(), suite
    header = WORKFLOW.read_text().split("\nname:")[0]
    assert "Byte-identity goldens" in header
    for suite in BYTE_IDENTITY_SUITES:
        assert suite in header, suite
