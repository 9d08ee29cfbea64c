"""The combined engine against the reference on graphs of 160 and 200 nodes.

The reference takes about 15 s on the 200-node graph, so this file is not
named ``test_*.py`` and the tier-1 suite does not collect it. Run it with
``PYTHONPATH=src python -m pytest -q tests/differential_large.py``.
"""

from __future__ import annotations

import random

from conftest import random_graph
from reprank import Mode
from test_differential import assert_engine_agrees


def test_combined_engine_matches_reference_up_to_200_nodes():
    rng = random.Random("differential-200-combined-large")
    for n in (160, 200):
        assert_engine_agrees(random_graph(rng, n, 4 / n, Mode.COMBINED))
