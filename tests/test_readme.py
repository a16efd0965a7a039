"""The README's examples: the shell session, run command by command and compared
line by line, and the library block, executed."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from fdfa import EMPTY

ROOT = Path(__file__).resolve().parent.parent


def example_session():
    """(command, expected stdout) pairs from the README's "Example session" block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Example session:\n\n```sh\n(.*?)```", readme, re.S).group(1)
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return [(cmd, "".join(out + "\n" for out in lines)) for cmd, lines in steps]


def test_readme_example_session(tmp_path):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "fdfa"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m fdfa "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    steps = example_session()
    assert steps
    for cmd, expected in steps:
        r = subprocess.run(["sh", "-c", cmd], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
        assert r.stdout == expected, (cmd, r.stderr)


def test_readme_library_example(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library overview\n.*?```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(block, scope)
    assert not scope["diff"].finite
    assert scope["mapping"].mapping == ((0, 1), (1, 2))
    parts = scope["parts"]
    assert (parts.finite, parts.infinite) == ({0}, {1, 2})
    same = scope["same"]
    assert same.kind == EMPTY and same.finite and same.words == ()
    assert scope["smaller"].n_states == 1
