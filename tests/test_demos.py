"""Every demo script prints its pinned output (``tests/golden/demo-*.out``),
README's quick start runs, and README names the library surface as
``polybern.__all__`` has it, against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polybern

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / f"demo-{script.stem}.out").read_text()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1/2", "pass"]


def test_readme_library_surface_names_every_export():
    # the paragraph that lists the library surface names each name of
    # polybern.__all__ in backticks, and no other bare name
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Library surface:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    assert named == set(polybern.__all__)
