"""Golden renders: fig8 and ablations print exactly the recorded bytes.

``tests/eval/golden/`` holds the ``--scale quick --workers 1 --quiet``
stdout of each artifact.  A change that alters a byte of either render
is a re-baseline: re-record the file and name the change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.__main__ import main as eval_main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("artifact", ["fig8", "ablations"])
def test_quick_render_matches_golden(artifact, capsys):
    assert eval_main([artifact, "--scale", "quick", "--workers", "1",
                      "--quiet"]) == 0
    expected = (GOLDEN / f"{artifact}_quick.txt").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == expected
