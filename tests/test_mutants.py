"""Each mutant of ``mutants.py`` applied to a copy of ``src/``, with its named
test files run against the copy in a fresh interpreter."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutants_are_well_formed():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    for m in MUTANTS:
        assert (m.equivalent is None) == bool(m.tests), m.name
        assert m.old != m.new, m.name
        assert (ROOT / "src" / "raagcert" / m.file).read_text().count(m.old) == 1, m.name
        assert all((ROOT / "tests" / name).is_file() for name in m.tests), m.name


def _run_against_copy(tmp_path, mutant, *args):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "raagcert", src / "raagcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "raagcert" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.slow
def test_runner_imports_the_copy(tmp_path):
    proc = _run_against_copy(tmp_path, None, "-c", "import raagcert; print(raagcert.__file__)")
    assert Path(proc.stdout.strip()).is_relative_to(tmp_path), proc.stdout


@pytest.mark.slow
@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.equivalent is None],
                         ids=lambda m: m.name)
def test_mutant_is_caught(tmp_path, mutant):
    proc = _run_against_copy(tmp_path, mutant, "-m", "pytest", "-q", "-x",
                             "-p", "no:cacheprovider",
                             *(str(ROOT / "tests" / name) for name in mutant.tests))
    # 1 is "tests failed"; a collection or usage error would show as 2 to 5
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
