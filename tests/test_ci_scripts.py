"""The CI shell scripts parse, and every script the workflow names exists.

The workflow itself runs only under GitHub Actions; `bash -n` reads each
script without running it, so a syntax slip or a renamed script shows here.
"""

import re
import subprocess
from pathlib import Path

import pytest

GITHUB = Path(__file__).resolve().parent.parent / ".github"


@pytest.mark.parametrize("script", sorted(GITHUB.glob("*.sh")), ids=lambda path: path.name)
def test_script_parses(script):
    result = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_workflow_names_only_scripts_that_exist():
    workflow = (GITHUB / "workflows" / "tests.yml").read_text()
    named = re.findall(r"\.github/([\w.-]+\.sh)\b", workflow)
    assert named
    assert [name for name in named if not (GITHUB / name).is_file()] == []
