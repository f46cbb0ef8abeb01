"""Golden renders: fig8, ablations and table1 print exactly the recorded
bytes.

``tests/eval/golden/`` holds the ``--scale quick --workers 1 --quiet``
stdout of each artifact; table1's is of ``--modules A5,B0,C7`` (one
module per vendor, perfbench's seed-0 set), since its default modules
take about a minute.  A change that alters a byte of any render is a
re-baseline: re-record the file and name the change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.__main__ import main as eval_main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Arguments each artifact's render adds to the common ones.
EXTRA_ARGS = {"fig8": [], "ablations": [],
              "table1": ["--modules", "A5,B0,C7"]}


@pytest.mark.parametrize("artifact", list(EXTRA_ARGS))
def test_quick_render_matches_golden(artifact, capsys):
    assert eval_main([artifact, *EXTRA_ARGS[artifact], "--scale", "quick",
                      "--workers", "1", "--quiet"]) == 0
    expected = (GOLDEN / f"{artifact}_quick.txt").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == expected
