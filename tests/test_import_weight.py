"""Importing the package, and its CLI module, loads neither dataclasses nor
inspect: together they are most of a one-shot CLI call's start-up.  Reading
the seed registry loads neither importlib.resources nor what it brings in.

The child interpreter runs isolated and without site (-I -S), so no
environment variable, user site or .pth file imports either module first,
and it imports the package from this checkout's src/.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import c4ramsey, c4ramsey.cli
print(c4ramsey.__file__)
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    package, loaded = out.stdout.splitlines()
    assert Path(package) == SRC / "c4ramsey" / "__init__.py"
    assert loaded == "[]"


SEEDS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import c4ramsey
assert c4ramsey.seed_registry().facts()
print(sorted({"importlib.resources", "inspect", "tempfile"} & set(sys.modules)))
"""


def test_seed_registry_loads_no_importlib_resources():
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SEEDS_CHILD, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
