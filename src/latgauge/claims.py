"""The paper's claims, each one function shared by `gauge suite` and a subcommand.

A claim takes one configuration and returns that configuration's checks,
each built by `check`, sometimes after the data its caller reports.  A
subcommand runs a claim on its one configuration; a suite criterion runs
it over its configuration list.  The claim decides every skip: a check
past the dense oracle's cap, or on an exact map past exact_skip, comes back
`skipped` with the reason.  GAUGE_MAX_DIM is compared by gauging.check_cap
alone, which raises CapExceededError.  Composed states are exact
operators.SupportState objects, so their norms and symmetries are compared
exactly.
"""

from __future__ import annotations

from .boundary import condensation_table, surviving_boundary_terms
from .excitations import confinement_report
from .gauging import (
    DEFAULT_DIM_CAP,
    CapExceededError,
    build_gauging_map,
    check_cap,
    compose_gauging,
    initial_state,
    verify_emergent_symmetry,
    verify_local_symmetry,
)
from .groups import restricted_characters
from .lattice import DENSE_ORACLE_CAP, check_all_commute, ground_space_dimension, ground_space_dimension_dense
from .tensors import mpo_matches_map, pull_through_check

SCHEMA_VERSION = 2


def check(name: str, claim: str, outcome: bool | None, **detail) -> dict:
    """One report check; an outcome of None is a skip, whose detail says why."""
    status = "skipped" if outcome is None else "passed" if outcome else "failed"
    return {"name": name, "claim": claim, "status": status, "passed": status == "passed", **detail}


def envelope(command: str, config: dict, checks: list, **fields) -> dict:
    """The versioned report of one command; it passes when no check failed."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "checks": checks,
        "passed": all(c["status"] != "failed" for c in checks),
        **fields,
    }


def _as_check(rep: dict, claim: str, name: str | None = None) -> dict:
    """A library report with a name and a passed flag, as a check."""
    detail = {k: v for k, v in rep.items() if k not in ("name", "passed")}
    return check(name or rep["name"], claim, rep["passed"], **detail)


def commutation(terms, boundary_terms=()) -> list[dict]:
    """The stabilizer terms commute pairwise, and so do the boundary terms with them."""
    checks = [_as_check(check_all_commute(terms), "all stabilizer terms commute pairwise")]
    if boundary_terms:
        both = check_all_commute([*terms, *boundary_terms])
        checks.append(_as_check(both, "boundary terms commute with the bulk", "bulk_and_boundary_commute"))
    return checks


def ground_dimension(spec, dense_cap: int = DENSE_ORACLE_CAP) -> list[dict]:
    """The torus ground dimension by normal form (`normal_form`), against the dense oracle up to dense_cap."""
    dim = ground_space_dimension(spec)
    name, claim = "ground_dimension_matches_dense", "normal form and dense oracle agree"
    try:
        dense = ground_space_dimension_dense(spec, dim_cap=dense_cap)
    except CapExceededError as exc:
        return [check(name, claim, None, normal_form=dim, dense=None, reason=str(exc))]
    return [check(name, claim, dense == dim, normal_form=dim, dense=dense)]


def stack_symmetries(layers):
    """(state, checks): the layers gauge their symmetric input at norm exactly 1.0 into a state
    that every stack symmetry fixes exactly.

    The last layer's output, the largest, is checked against the cap by site count before the input is built.
    """
    check_cap("output", layers[0].group.size, layers[0].n + sum(len(x.new_positions()) for x in layers))
    norms: list[float] = []
    state = compose_gauging(layers, initial_state(layers[0].group, layers[0]), norms_out=norms)
    return state, [
        check(
            "layer_norms_unit", "symmetric inputs stay unit norm through every layer",
            all(x == 1 for x in norms), norms=norms,
        ),
        _as_check(verify_local_symmetry(state, layers), "the composed state satisfies every stack symmetry"),
    ]


def exact_skip(layer) -> str | None:
    """Why a claim skips the layer's exact map, over DEFAULT_DIM_CAP cells whatever GAUGE_MAX_DIM says; else None."""
    if layer.exact_cells > DEFAULT_DIM_CAP:
        return f"the exact map has {layer.exact_cells} cells, over {DEFAULT_DIM_CAP}"


def emergent_symmetry(layer) -> list[dict]:
    """The dual symmetry on the layer's new row fixes its exact map."""
    name, claim = f"emergent_symmetry_layer{layer.index}", "the dual symmetry on the new row fixes the map"
    if reason := exact_skip(layer):
        return [check(name, claim, None, reason=reason)]
    return [_as_check(verify_emergent_symmetry(build_gauging_map(layer)), claim, name)]


def confinement(spec, element=None):
    """(report, checks): twisted strings cost energy, their dipoles move and braid freely."""
    rep = confinement_report(spec, element)
    return rep, [
        check(
            "string_energy_grows", "horizontal twisted strings cost energy linear in length",
            rep["string_strictly_increasing"], counts=rep["string_counts"],
        ),
        check(
            "dipole_moves_freely", "the dipole syndrome does not grow with vertical extent",
            rep["dipole_constant"], counts=rep["dipole_counts"],
        ),
        check(
            "dipole_braids_trivially", "the dipole commutes with horizontal character strings",
            rep["dipole_braids_trivially"],
        ),
        check("syndrome_multiplicative", "bending relocates the syndrome multiplicatively", rep["bend_homomorphic"]),
    ]


def boundary_condensation(spec, chain, subgroup, restriction_chain=None):
    """(table, checks): the boundary set by the chain keeps the characters trivial on H and condenses H.

    The surviving terms are read off `restriction_chain` when one is
    given: a chain of n sites tests string orders up to length n - 1.
    """
    table = condensation_table(spec, chain)
    surviving = set(table["surviving"])
    if restriction_chain is not None:
        surviving = {chi.exps for chi in surviving_boundary_terms(restriction_chain)[0]}
    inside = {h.exps for h in subgroup}
    return table, [
        check(
            "surviving_terms_match_restriction", "surviving boundary terms are the characters trivial on H",
            surviving == {chi.exps for chi in restricted_characters(spec.group, subgroup)},
        ),
        check(
            "condensation_partition", "anyons in H condense, anyons outside H are blocked",
            all(
                table["group_anyons"][str(g.exps)]["condenses"] == (g.exps in inside)
                for g in spec.group.elements()
            ),
        ),
    ]


def tensor_identities(group, layers=()) -> list[dict]:
    """The group's tensors pull symmetries through exactly; each layer's MPO equals its exact map."""
    checks = [_as_check(pull_through_check(group), "every tensor symmetry identity holds with zero deviation")]
    if layers:
        # A list, not a generator: every layer is checked, so a cap is
        # reported even after a failing layer.
        ok = all([mpo_matches_map(layer) for layer in layers])
        checks.append(check("mpo_equals_dense", "MPO contraction equals the dense map up to a positive scalar", ok))
    return checks
