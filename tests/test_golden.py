"""Reports compared byte for byte with copies kept under tests/golden/.

The golden files were written before the dense kernels were fused.  The
`norms` floats of a `gauge compose` report are the first place a change
in rounding would show.  The first three configurations have norms of
exactly 1.0; the Z3 and Z2xZ3 stacks are there because theirs sit a few
ulps off 1.0, where a different order of operations would show.

The last two `compose` files were written before StateVector.apply moved
each array once: the twisted Z2xZ2 stack on both layer parities puts
phases on both permuted factors of every projective shift, and the open
Z3 trapezoid has norms a few ulps off 1.0.

The `gauge code` files were written while the dense ground-space oracle
still ranked random projections; the two torus cases pin its `dense`
entry, and the cylinder case the report without one.

The `suite` report and the `tn --mpo-layers` report were written while
the layer MPO still copied the bond loop of `GaugingMap.exact_matrix`;
they pin every criterion of the battery and the MPO comparison, so a
change of construction route must leave both unchanged.

The `boundary` and `confine` files were written while the 1D input still
had a shift convention and open chains beside the clock chain, and while
the excitation paths wrapped their sites by hand.

`boundary_z4_n4_subgroup_0_2.json` was regenerated once when the 1D fixed
points were built in closed form and their string orders counted on the
integer support.  Only its `raw_expectations` moved: each entry is now
exactly {"im": 0.0, "re": 1.0} or {"im": 0.0, "re": 0.0}, where the float
Fourier rotation left 1.0000000000000002 and residues of 1e-33 to 1e-52.
The Z2xZ2 `boundary` file already read exactly 1.0 and did not move.

Three files were regenerated when GaugingMap.apply became one broadcast
multiply by the layer's row kernel: `compose_z3_layers3_n2.json`,
`compose_z2xz3_layers2_n2.json` and `suite.json`.  On groups with complex
roots the product psi[a, m] * K[m, e] rounds differently from the
projector loop over the whole stacked state.  In each file one float
moved and nothing else: the second `norms` entry of each compose report
by one ulp (1.1e-16), and the `frustration_free` `worst_deviation` of the
suite from 6.26435505058391e-16 to 6.259111737608056e-16.

All fifteen files were regenerated once for report schema 2, when each
paper claim became one function shared by the suite and the subcommands.
Every check gained `status`, `schema_version` went from 1 to 2, the
suite report gained `skipped_over_cap` lists on criteria 2, 3, 5 and 11
and a top-level `skipped` count, and `compose_z3_layers3_n2_open.json`
gained the skipped `emergent_symmetry_layer2` check that schema 1 left
out.  Dropping those additions and setting the version back to 1 gives
the schema-1 files byte for byte; nothing else moved.

Four files were regenerated when the row kernel became the sum of the
map's term roots by np.bincount instead of the float projector loop.
Five floats moved and nothing else, each norm toward 1: `norms[1]` and
`norms[2]` of `compose_z3_layers3_n2.json`
(0.9999999999999998 -> 1.0, 0.9999999999999994 -> 0.9999999999999999),
`norms[0]` and `norms[1]` of `compose_z2xz3_layers2_n2.json`
(0.9999999999999997 and 0.9999999999999996 -> 1.0), `norms[1]` of
`compose_z3_layers3_n2_open.json` (0.9999999999999996 ->
0.9999999999999999), and the `frustration_free` `worst_deviation` of the
suite (6.259111737608056e-16 -> 6.277434907432094e-16).

`suite.json` was regenerated once more when criterion 4 took its
bulk-term overlaps from one StateVector.expectations sum over the state's
support, divided by the squared norm, instead of an inner product with a
dense apply on a normalized copy.  Only the `frustration_free`
`worst_deviation` moved, from 6.277434907432094e-16 to
3.149981718843476e-16; the other fourteen files, the compose reports'
`"tol": 1e-10` (now read from gauging.STATE_TOL) among them, did not.

`compose_z3_layers3_n2_open.json` was regenerated once when the claims'
two skip limits on exact maps, 2**22 cells for the emergent symmetry and
2**24 for the MPO comparison, became the one limit
gauging.DEFAULT_DIM_CAP (2**24).  Only `emergent_symmetry_layer2` moved:
its exact map has 4782969 cells, between the two, so the check went
from skipped to passed and gained its three label checks.  No layer of
the suite lies between the two limits, and `suite.json` did not move.

Three files were regenerated once when compose_gauging began to build
exact support states (sorted basis keys, integer roots and one rational
squared magnitude) and to check them exactly, with no dense array.  The
norms of `compose_z3_layers3_n2.json` (0.9999999999999999 -> 1.0) and
of `compose_z3_layers3_n2_open.json` (0.9999999999999999 and
1.0000000000000089 -> 1.0 and 1.0) became exactly 1.0, and the
`frustration_free` `worst_deviation` of `suite.json` went from
3.149981718843476e-16 to 0.0.  Nothing else moved: the other twelve
files are byte-identical, and each compose report's
`dimensions.amplitudes` is still the dense count, the product of the
site dimensions.
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
    "compose_z2xz2_layers4_n2_twist_both.json": [
        "compose", "--group", "2,2", "--layers", "4", "--n", "2", "--twist-even", "p12=1",
        "--twist-odd", "p12=1",
    ],
    "compose_z3_layers3_n2_open.json": [
        "compose", "--group", "3", "--layers", "3", "--n", "2", "--bc", "open",
    ],
    "code_z2xz2_n2_m2_twist_even.json": [
        "code", "--group", "2,2", "--n", "2", "--m", "2", "--twist-even", "p12=1",
    ],
    "code_z3_n2_m4.json": ["code", "--group", "3", "--n", "2", "--m", "4"],
    "code_z2_cylinder_m4_subgroup_e.json": [
        "code", "--group", "2", "--bc", "cylinder", "--m", "4", "--subgroup", "e",
    ],
    "suite.json": ["suite"],
    "tn_z2xz2_n3_mpo_layers.json": ["tn", "--group", "2,2", "--mpo-layers", "--n", "3"],
    "boundary_z2xz2_n3_subgroup_e.json": ["boundary", "--group", "2,2", "--subgroup", "e", "--n", "3"],
    "boundary_z4_n4_subgroup_0_2.json": ["boundary", "--group", "4", "--subgroup", "0;2", "--n", "4"],
    "confine_z2xz2_twist_even.json": ["confine", "--group", "2,2", "--twist-even", "p12=1"],
}
OUT_FLAG = {
    "compose": "--out",
    "code": "--report",
    "suite": "--out",
    "tn": "--out",
    "boundary": "--out",
    "confine": "--out",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    args = CASES[name]
    result = CliRunner().invoke(main, args + [OUT_FLAG[args[0]], str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
