"""CLI `metrics` bytes against a committed golden file.

Performance work must leave every metric bit unchanged. Each command below
is run through the CLI's own parser and runner, and its compact key-sorted
metrics block (`ResultRecord.metrics_json`) must equal the golden bytes.

Regenerate the golden file only from code whose outputs are known good:

    PYTHONPATH=src python tests/test_golden_metrics.py
"""

import json
from pathlib import Path

import pytest

from qadconv import cli

GOLDEN = Path(__file__).with_name("golden_metrics.json")

COMMANDS = (
    "qadc --variant abs --random 4 --m 4 --g 3 --seed 3",
    "qadc --variant real --random 4 --m 4 --g 3 --seed 3",
    "qadc --variant imag --random 8 --m 3 --g 2 --seed 5",
    "nonlinear --random 4 --m 3 --g 2 --seed 2",
    "perceptron --random 4 --m 3 --g 2 --seed 2",
    "qdac --random 4 --m 6 --seed 1",
    "qdac --random 8 --m 6 --seed 1 --mode amplify",
    "nonlinear --f product --random 4 --complex --m 3 --g 2 --seed 2",
    "nonlinear --f tanh --random 8 --complex --m 3 --g 2 --seed 4 --mode amplify",
)


def metrics_bytes(command: str) -> str:
    args = cli.build_parser().parse_args(command.split())
    return cli.run(cli._config_from_args(args)).metrics_json()


@pytest.mark.parametrize("command", COMMANDS)
def test_metrics_match_golden(command):
    golden = json.loads(GOLDEN.read_text())
    assert metrics_bytes(command) == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: metrics_bytes(c) for c in COMMANDS},
                                 indent=1) + "\n")
