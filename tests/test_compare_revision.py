"""tools/compare_revision.py: one revision's fixed output set against its own
gives exit 0 and names every file identical."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_revision.py"


def _has_head() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(TOOL.parents[1]), "rev-parse", "--verify", "HEAD^{commit}"],
        capture_output=True,
    )
    return probe.returncode == 0


@pytest.mark.skipif(not _has_head(), reason="needs git and a repository with a commit")
def test_head_against_head_is_identical(capfd):
    spec = importlib.util.spec_from_file_location("compare_revision", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main(["HEAD", "HEAD", "--scenarios", "smatrix-check", "conditions-check"])
    lines = capfd.readouterr().out.splitlines()
    assert status == 0, lines
    # three files per scenario, once per jobs setting
    assert len(lines) == 12 and all(line.endswith(": identical") for line in lines)
    assert "jobs2/smatrix_check_manifest.json: identical" in lines
