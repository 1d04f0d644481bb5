"""What the package declares about itself, and what importing it costs."""

import re
import subprocess
import sys
from pathlib import Path

import pilid

ROOT = Path(__file__).resolve().parent.parent


def test_version_is_the_one_pyproject_declares():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == \
        [pilid.__version__]


def test_cli_import_loads_no_costly_module():
    """Each of these modules would add to the start of every command:
    `scipy.stats` once took most of a 1.2 s start, `importlib.metadata`
    takes about 17 ms, and `xml.sax` imports `urllib.request`, about
    20 ms (`python -X importtime`)."""
    costly = ["scipy", "importlib.metadata", "urllib.request", "xml.sax"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pilid.cli; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                          *costly], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == []
