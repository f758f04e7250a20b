"""Outputs pinned byte for byte: reports, event logs and exports.

The digests in tests/data/golden_digests.json are regenerated only by
``tools/golden_digests.py --write``, by a change that moves outputs on
purpose and says why.
"""

import importlib.util
import json
import os

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "tools", "golden_digests.py")


def _tool():
    spec = importlib.util.spec_from_file_location("golden_digests", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_outputs_match_golden_digests():
    tool = _tool()
    with open(tool.GOLDEN) as fh:
        golden = json.load(fh)
    assert tool.compute() == golden
