"""Let CLI tests that start `python -m isocert` in a child process import
this checkout's src/, as the in-process tests do through pyproject.toml's
pytest `pythonpath`, so a bare `pytest` needs no install."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in (os.path.abspath(p) for p in paths):
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *paths])
