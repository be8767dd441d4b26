"""Start-up cost: importing the CLI loads no XML, mail or network stack."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# top-level packages, with all their modules, and single modules the CLI must not load
BANNED_PACKAGES = ("xml", "http", "email")
BANNED_MODULES = ("ssl", "socket", "urllib.request")


def test_cli_import_loads_no_xml_mail_or_network_modules():
    code = "import sys, json, structprobe.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "structprobe.chart" in loaded
    banned = [
        name for name in loaded
        if name in BANNED_MODULES or name.split(".")[0] in BANNED_PACKAGES
    ]
    assert banned == []
