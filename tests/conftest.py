"""Put `src/` on PYTHONPATH so the CLI subprocesses started by the tests
import this checkout, as the in-process imports do through the
`pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
