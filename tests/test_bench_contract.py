"""The benchmark tracer wraps package attributes by name; pin those names.

``bench/tracing.py`` replaces functions on ``triring.cli`` and
``triring.model`` while a traced run lasts.  A refactor that drops or renames
one of them would break ``bench/run.py --trace 1`` with an AttributeError,
so the names are checked here against the file as it stands.
"""

import importlib.util
from pathlib import Path

import triring.cli
import triring.model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    missing = [name for name in tracing.CLI_TARGETS if not hasattr(triring.cli, name)]
    assert missing == []
    assert callable(triring.model.embed)


def test_tracer_wraps_and_restores():
    tracing = load_tracing()
    before = {name: getattr(triring.cli, name) for name in tracing.CLI_TARGETS}
    embed = triring.model.embed
    with tracing.Tracer():
        assert all(getattr(triring.cli, n) is not f for n, f in before.items())
        assert triring.model.embed is not embed
    assert all(getattr(triring.cli, n) is f for n, f in before.items())
    assert triring.model.embed is embed


def test_scenario_tables_are_traced_as_emits(tmp_path, monkeypatch):
    # every table goes through the module's emit_table, which the tracer
    # wraps, so a traced scenario run times and counts its table writes
    from test_scenario_outputs import fake_run_point

    tracing = load_tracing()
    monkeypatch.setattr(triring.cli, "run_point", fake_run_point)
    with tracing.Tracer() as tracer:
        files = triring.cli.scenario("smatrix-check", tmp_path, dims=4, jobs=1)
        files += triring.cli.scenario("fig3", tmp_path, dims=4, jobs=1)
    emits = [span for span in tracer.spans if span[0] == "cli.emit"]
    assert len(emits) == 3  # smatrix_check, fig3ab and fig3c
    assert all(tracer.spans[parent][0] == "cli.scenario" for *_, parent in emits)
    assert tracer.emitted_bytes == sum(path.stat().st_size for path in files)
