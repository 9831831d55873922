"""Every artifact of a small pipeline has the bytes recorded in
tests/golden/digests.json (see tests/golden/regenerate.py)."""

import json

from helpers import GOLDEN, golden_versions, pipeline_digests


def test_pipeline_artifacts_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = golden_versions()
    assert golden["numpy"] == here["numpy"], (
        f"the digests were made with numpy {golden['numpy']}, this is numpy {here['numpy']}: "
        "regenerate them in a commit of their own (tests/golden/regenerate.py)")
    digests = pipeline_digests(tmp_path)
    differ = [
        f"seed {seed}: {name}"
        for seed in sorted(golden["digests"].keys() | digests.keys())
        for name in sorted(golden["digests"].get(seed, {}).keys() | digests.get(seed, {}).keys())
        if golden["digests"].get(seed, {}).get(name) != digests.get(seed, {}).get(name)
    ]
    assert not differ, (
        f"artifacts whose digest differs from {GOLDEN.name} (made with Python "
        f"{golden['python']}, this is {here['python']}): {', '.join(differ)}")
