"""Start-up cost: commands that solve nothing load no scipy module,
importing the CLI loads no process-pool module, and no scenario loads
scipy.special."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import triring
from triring.cli import baseline_params, run_point

# runs in a fresh interpreter: the commands first, then one solve
_CHILD = r"""
import dataclasses, json, sys
from pathlib import Path

import triring
import triring.cli
from triring.cli import baseline_params, main, run_point, scenario

# a serial process loads no process-pool machinery
pool = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))

out = Path(sys.argv[1])
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
config = out / "point.json"
config.write_text(json.dumps({"params": {"omega": 0.1}, "dims": 3}))
assert main(["validate", str(config)]) == 0
config.write_text(json.dumps({"params": {"omega": "x"}}))
assert main(["validate", str(config)]) == 2
scenario("smatrix-check", out_dir=out)
scenario("conditions-check", out_dir=out)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
result = run_point(baseline_params(), dims=(2, 2, 2))
print(json.dumps({
    "pool_modules": pool, "scipy_before_solve": loaded, "result": dataclasses.asdict(result),
}))
"""


def _run_child(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; the JSON its last line prints."""
    src = str(Path(triring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_solve_nothing_load_no_scipy(tmp_path):
    report = _run_child(_CHILD, str(tmp_path))
    assert report["pool_modules"] == []
    assert report["scipy_before_solve"] == []
    # the first solve imports scipy and gives the same record, bit for bit:
    # json writes each float with the shortest repr that reads back exactly
    here = json.loads(json.dumps(dataclasses.asdict(run_point(baseline_params(), dims=(2, 2, 2)))))
    assert report["result"] == here


# fig3 with the fake run_point of test_scenario_outputs.py, so that its
# Poisson table is built without a solve
_FIG3_CHILD = r"""
import json, sys

sys.path.insert(0, sys.argv[2])
import triring.cli as cli
from test_scenario_outputs import fake_run_point

cli.run_point = fake_run_point
files = cli.scenario("fig3", sys.argv[1], dims=4, jobs=1)
loaded = sorted(m for m in sys.modules if m == "scipy.special" or m.startswith("scipy.special."))
print(json.dumps({"files": [p.name for p in files], "scipy_special": loaded}))
"""


def test_fig3_poisson_table_loads_no_scipy_special(tmp_path):
    report = _run_child(_FIG3_CHILD, str(tmp_path), str(Path(__file__).parent))
    assert "fig3c.csv" in report["files"]
    assert report["scipy_special"] == []
