"""CLI `metrics` bytes against a committed golden file.

Performance work must leave every metric bit unchanged. Each command below
is run through the CLI's own parser and runner, and its compact key-sorted
metrics block (`ResultRecord.metrics_json`) must equal the golden bytes.

Regenerate the golden file only from code whose outputs are known good:

    PYTHONPATH=src python tests/test_golden_metrics.py

It prints, per command whose bytes move, each moved top-level field and
its largest absolute change, before it writes the file. With --check it
prints the same, writes nothing, and exits 1 if anything moved.
"""

import json
import sys
from pathlib import Path

import pytest

from qadconv import cli, qadc

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


def test_metrics_match_golden_cold_and_warm():
    # readout records are built once per shape and shared: every command
    # gives the golden bytes with none built yet, and again with all of them
    # built by the first pass
    golden = json.loads(GOLDEN.read_text())
    qadc._clear_shape_cache()
    for rerun in ("cold", "warm"):
        for command in COMMANDS:
            assert metrics_bytes(command) == golden[command], (rerun, command)


def largest_change(old, new) -> float:
    """Largest absolute change between two decoded JSON values of the same
    shape; inf where the shape, a type or a non-numeric value differs."""
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max(map(largest_change, old, new), default=0.0)
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return max((largest_change(old[k], new[k]) for k in old), default=0.0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        return abs(new - old)
    return 0.0 if old == new else float("inf")


def moved_fields(old: str, new: str) -> dict:
    """{field: largest absolute change} over the top-level metrics fields
    whose values differ between two metrics blocks."""
    a, b = json.loads(old), json.loads(new)
    return {k: largest_change(a.get(k), b.get(k))
            for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)}


def main(argv) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print("usage: test_golden_metrics.py [--check]", file=sys.stderr)
        return 2
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    current = {c: metrics_bytes(c) for c in COMMANDS}
    moved = [c for c in current if previous.get(c) != current[c]]
    for command in moved:
        if command not in previous:
            print(f"{command}: new entry")
        else:
            print(f"{command}:")
            for field, change in moved_fields(previous[command], current[command]).items():
                print(f"  {field}: {change:.3g}")
    if check:
        return 1 if moved else 0
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
