import os
import subprocess
import sys
from pathlib import Path

import vdwsurf
from vdwsurf import greens, interaction, materials


def test_public_names_after_a_fresh_import():
    # greens is imported at first use (PEP 562): every public name must still
    # resolve, bind under a star import and show in dir() of a fresh package
    script = """
import sys, vdwsurf

if "vdwsurf.greens" in sys.modules:
    sys.exit("import vdwsurf loaded vdwsurf.greens")
missing = [name for name in vdwsurf.__all__ if name not in dir(vdwsurf)]
if missing:
    sys.exit("not in dir(vdwsurf): %s" % missing)
for name in vdwsurf.__all__:
    getattr(vdwsurf, name)
star = {}
exec("from vdwsurf import *", star)
unbound = [name for name in vdwsurf.__all__ if name not in star]
if unbound:
    sys.exit("not bound by a star import: %s" % unbound)
if vdwsurf.greens is not sys.modules["vdwsurf.greens"] or vdwsurf.sommerfeld_green is not vdwsurf.greens.sommerfeld_green:
    sys.exit("vdwsurf.greens does not resolve to the module")
try:
    vdwsurf.no_such_name
except AttributeError as exc:
    if "no_such_name" not in str(exc):
        sys.exit("AttributeError without the name: %s" % exc)
else:
    sys.exit("vdwsurf.no_such_name resolved")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_atom_positions_is_one_class():
    assert vdwsurf.AtomPositions is materials.AtomPositions
    assert greens.AtomPositions is materials.AtomPositions
    assert interaction.AtomPositions is materials.AtomPositions
