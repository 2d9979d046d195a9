"""scripts/render_gallery.py, the SVG drawings of the start and the optimum."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hexagon_gallery(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "render_gallery.py"),
         "--n", "6", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    drawings = sorted(tmp_path.glob("*.svg"))
    assert [p.name for p in drawings] == ["n006-optimal.svg", "n006-pendant.svg"]
    assert all(p.read_text(encoding="utf-8").startswith("<svg") for p in drawings)
