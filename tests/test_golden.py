"""Reports compared byte for byte with copies kept under tests/golden/.

The golden files were written before the dense kernels were fused.  The
`norms` floats of a `gauge compose` report are the first place a change
in rounding would show.  The first three configurations have norms of
exactly 1.0; the Z3 and Z2xZ3 stacks are there because theirs sit a few
ulps off 1.0, where a different order of operations would show.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from latgauge.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "compose_z2_layers3_n3.json": ["compose", "--group", "2", "--layers", "3", "--n", "3"],
    "compose_z2xz2_layers3_n2_twist_even.json": [
        "compose", "--group", "2,2", "--layers", "3", "--n", "2", "--twist-even", "p12=1",
    ],
    "compose_z2_layers3_n3_open.json": [
        "compose", "--group", "2", "--layers", "3", "--n", "3", "--bc", "open",
    ],
    "compose_z3_layers3_n2.json": ["compose", "--group", "3", "--layers", "3", "--n", "2"],
    "compose_z2xz3_layers2_n2.json": ["compose", "--group", "2,3", "--layers", "2", "--n", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    result = CliRunner().invoke(main, CASES[name] + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
