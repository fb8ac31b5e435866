"""Byte identity of the CLI outputs, pinned by SHA-256 digests.

Each case runs one ``bhc`` command in-process and hashes its exit code and
output, with the JSON ``wall_time`` blanked (the one part of an output that
is not deterministic).  The digests in ``golden_digests.json`` were taken
from a known-good commit; a refactor that changes any byte of these outputs
fails here.  To record them anew after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which outputs changed and why.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from bhc.cli import main
from bhc.core import Field
from bhc.recursion import Strategy

DIGESTS = Path(__file__).with_name("golden_digests.json")

# The Queffelec / Defant-Sevilla-Peris baseline is stated for complex
# scalars only, so its real outputs are errors and are not pinned here.
_PAIRS = [
    (field.value, strategy.value)
    for field in Field
    for strategy in Strategy
    if (field, strategy) != (Field.REAL, Strategy.BASELINE_QUEFFELEC_DS)
]


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for field, strategy in _PAIRS:
        common = ("--field", field, "--strategy", strategy)
        for fmt in ("table", "csv", "json"):
            cases.append(("constants", *common, "--max-m", "40", "--format", fmt))
        for fmt in ("table", "json"):
            cases.append(("constants", *common, "--max-m", "40", "--compare", "--format", fmt))
            for m in (2, 3, 12, 23, 37, 257):
                cases.append(("explain", *common, "--m", str(m), "--format", fmt))
    for fmt in ("table", "csv", "json"):
        cases.append(("baselines", "--field", "complex", "--max-m", "60", "--format", fmt))
    # every verify subtarget and both search fields, with and without their
    # size flags, so the defaults the commands fall back on are pinned too
    cases += [
        tuple(line.split())
        for line in (
            "verify khinchine --trials 5 --format json",
            "verify khinchine --p 1.5 --n 6 --trials 5 --format table",
            "verify blei --trials 20 --seed 7 --format json",
            # every report's lhs, rhs and ratio, so a last-bit change in any trial shows
            "verify blei --trials 300 --seed 3 --verbose --format json",
            "verify khinchine --n 16 --trials 20 --seed 3 --verbose --format json",
            "verify bh --trials 5 --format json",
            "verify bh --m 3 --dim 3 --trials 5 --verbose --format json",
            "verify summing --m 2 --dim 3 --trials 5 --format json",
            "verify summing --trials 5 --precision 6 --format csv",
            "search --budget 500 --format json",
            "search --m 3 --dim 2 --budget 500 --format table",
            "search --field complex --budget 20 --format json",
        )
    ]
    return cases


def _digest(argv: tuple[str, ...]) -> dict:
    result = CliRunner().invoke(main, list(argv))
    output = re.sub(r'"wall_time": [^,\n}]+', '"wall_time": null', result.output)
    return {"exit": result.exit_code, "sha256": hashlib.sha256(output.encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_the_cases_are_the_recorded_ones(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_output_is_byte_identical(golden, argv):
    assert _digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    digests = {" ".join(argv): _digest(argv) for argv in _cases()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
