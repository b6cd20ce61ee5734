"""Full-scan oracles for the commutation scans of lattice and excitations.

The library compares only operators that share a site.  These oracles
compare everything, through `sitewise_commutation_phase` (the unmemoized
per-site commutator): every term against the op, and for
`check_all_commute` every candidate pair of the set-then-sort
enumeration, each term pair on a common site collected into one global
set and sorted.  Tests require the library to give the same dicts, the
same witnesses and the same syndrome keys, order and values.
"""

from __future__ import annotations

import itertools

from test_commutation_memo import sitewise_commutation_phase


def candidate_pairs(terms) -> list[tuple[int, int]]:
    """(a, b) with a < b for every two terms on a common site, sorted."""
    by_site: dict = {}
    for idx, term in enumerate(terms):
        for site, _ in term.op.factors:
            by_site.setdefault(site, []).append(idx)
    candidates = set()
    for idxs in by_site.values():
        for a, b in itertools.combinations(sorted(idxs), 2):
            candidates.add((a, b))
    return sorted(candidates)


def check_all_commute(terms) -> dict:
    pairs = candidate_pairs(terms)
    violations = []
    for a, b in pairs:
        phase = sitewise_commutation_phase(terms[a].op, terms[b].op)
        if phase is None or not phase.is_one:
            violations.append(
                {
                    "a": terms[a].label.as_json(),
                    "b": terms[b].label.as_json(),
                    "phase": None if phase is None else phase.k,
                }
            )
    return {"name": "all_commute", "passed": not violations, "pairs_checked": len(pairs), "violations": violations}


def first_violation(terms, op) -> dict | None:
    for t in terms:
        ph = sitewise_commutation_phase(t.op, op)
        if ph is None or not ph.is_one:
            return {"term": t.label.as_json(), "phase": None if ph is None else ph.k}
    return None


def syndrome_phases(terms, op) -> dict:
    return {t.label: sitewise_commutation_phase(t.op, op) for t in terms}
