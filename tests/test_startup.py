"""Start-up cost: commands that solve nothing load no scipy module."""

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
print(json.dumps({"scipy_before_solve": loaded, "result": dataclasses.asdict(result)}))
"""


def test_commands_that_solve_nothing_load_no_scipy(tmp_path):
    src = str(Path(triring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["scipy_before_solve"] == []
    # the first solve imports scipy and gives the same record, bit for bit:
    # json writes each float with the shortest repr that reads back exactly
    here = json.loads(json.dumps(dataclasses.asdict(run_point(baseline_params(), dims=(2, 2, 2)))))
    assert report["result"] == here
