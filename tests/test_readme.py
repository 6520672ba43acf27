"""README.md's example configs validate against the config schema."""

import json
import re
from pathlib import Path

from symtest import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_json_block_is_a_valid_config():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        ExperimentConfig.from_dict(json.loads(block))
