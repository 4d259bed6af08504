"""The x86 back end compiles differently under different hash seeds.

``build_intervals`` (``repro.kernel.compiler``) walks the ``live_out`` and
``live_in`` sets, so intervals reach ``linear_scan`` in set-iteration order,
and ties in its (start, end) sort and in its max-end spill victim are broken
by that order.  x86 qsort, sha and dijkstra change with ``PYTHONHASHSEED``;
rv and arm do not.  The benchmark pins ``PYTHONHASHSEED=0`` for every
workload; this test records the bug until the allocator breaks ties
deterministically.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_IMAGE = (
    "import hashlib\n"
    "from repro.core.campaign import compile_workload\n"
    "exe = compile_workload('x86', 'qsort', 'tiny')\n"
    "print(hashlib.sha256(exe.code + exe.data).hexdigest())\n"
)


def _image_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMAGE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout.strip()


@pytest.mark.xfail(strict=True, reason="x86 register allocation breaks ties "
                                       "in set-iteration order")
def test_x86_image_is_independent_of_hash_seed():
    assert _image_digest("0") == _image_digest("1")
