"""Static checks on the library sources (no linter is a dependency)."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "latgauge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Bound name -> line of every import in the module, __future__ excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name loaded anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _unread_parameters(tree: ast.AST) -> list[str]:
    """`function(parameter)` for every parameter its body never loads; self and cls are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unread += [f"{node.name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = _unread_parameters(tree)
    assert not unread, f"{path.name}: parameters never read {unread}"


def _dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for every annotated field of every @dataclass class, ClassVar excluded."""
    fields = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if "ClassVar" not in ast.unparse(stmt.annotation):
                    fields.append((node.name, stmt.target.id))
    return fields


def _attributes_read(paths) -> set[str]:
    """Every attribute name loaded as `x.name` anywhere in the given sources."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_field_is_read(path):
    read = _attributes_read(SRC.glob("*.py"))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = [f"{cls}.{name}" for cls, name in _dataclass_fields(tree) if name not in read]
    assert not unread, f"{path.name}: dataclass fields never read {unread}"


ROOT = SRC.parent.parent


def _name_references(paths) -> dict[str, list[tuple[pathlib.Path, int]]]:
    """name -> (path, line) of every loaded name, attribute, imported name
    and dotted identifier string (span targets name methods as strings)."""
    refs: dict = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [part for part in node.value.split(".") if part.isidentifier()]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _registered_command(node: ast.AST) -> bool:
    """True for a click command or group, registered by its decorator alone."""
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "attr", None) in ("command", "group") for d in node.decorator_list
    )


def test_every_function_is_referenced():
    refs = _name_references(p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py")))
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or _registered_command(node):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in refs.get(name, [])):
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert not unreferenced, f"functions named nowhere outside their own definition: {unreferenced}"


def _module_constants(tree: ast.Module) -> dict[str, int]:
    """UPPER_CASE name -> line of every module-level assignment to one."""
    constants = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                constants[target.id] = node.lineno
    return constants


def _names_loaded(paths) -> set[str]:
    """Every name loaded as `name` or `x.name` anywhere in the given sources."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_module_constant_is_read():
    loaded = _names_loaded(p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py")))
    unread = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in _module_constants(ast.parse(path.read_text(encoding="utf-8"))).items()
        if name not in loaded
    ]
    assert not unread, f"module constants nothing reads: {unread}"


PROJECTIVE = {"projective_x", "projective_x_tilde"}


def _references(node: ast.AST, names: set, owner: str | None = None):
    """(function, line) of every load of one of `names`, by the innermost function around it; None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _references(child, names, child.name)
            continue
        name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if name in names and isinstance(child.ctx, ast.Load):
            yield owner, child.lineno
        yield from _references(child, names, owner)


def test_only_the_corner_table_builds_projective_shifts():
    # operators.corner_factors keeps the one convention for the twisted
    # shift pair; every other function takes its pair from there.
    stray = [
        f"{path.name}:{line} {owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner, line in _references(ast.parse(path.read_text(encoding="utf-8")), PROJECTIVE)
        if (path.name, owner) != ("operators.py", "corner_factors")
    ]
    assert not stray, f"projective shifts built outside operators.corner_factors: {stray}"


def _sources():
    """(path, tree) of every module of the library, __init__.py included."""
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def test_state_tolerance_is_written_once():
    # gauging.STATE_TOL is the one state tolerance, and no state check reads it.
    places = [
        f"{path.name}:{node.lineno}"
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-10
    ]
    assert len(places) == 1, f"the literal 1e-10 should occur once, found at {places}"


def test_state_tolerance_is_read_only_by_compose_and_a_default():
    # Every state check is exact: STATE_TOL is only the `tol` that `gauge
    # compose` reports and the default of verify_local_symmetry's unused tol.
    stray = [
        f"{path.name}:{line} {owner}"
        for path, tree in _sources()
        for owner, line in _references(tree, {"STATE_TOL"})
        if (path.name, owner) not in (("cli.py", "compose"), ("gauging.py", "verify_local_symmetry"))
    ]
    assert not stray, f"STATE_TOL read outside cli.compose and verify_local_symmetry's default: {stray}"
    (verify,) = [
        node for path, tree in _sources() if path.name == "gauging.py"
        for node in ast.walk(tree) if getattr(node, "name", None) == "verify_local_symmetry"
    ]
    assert not list(_references(ast.Module(body=verify.body, type_ignores=[]), {"STATE_TOL"}))


def test_no_state_overlap_in_floats():
    # States are compared key for key, so no float inner product is taken.
    found = [f"{path.name}:{line} {owner}" for path, tree in _sources() for owner, line in _references(tree, {"vdot"})]
    assert not found, f"np.vdot in the library: {found}"


def test_only_state_vector_builds_itself():
    # Every state the library builds is an exact SupportState; StateVector
    # stays only for the benchmark's span on StateVector.apply.
    stray = [
        f"{path.name}:{line} {owner}"
        for path, tree in _sources()
        for owner, line in _references(tree, {"StateVector"})
        if (path.name, owner) != ("operators.py", "apply")
    ]
    assert not stray, f"StateVector named outside its own methods: {stray}"


def test_no_function_takes_a_cap():
    # GAUGE_MAX_DIM, read by gauging.dimension_cap, is the one way to set the amplitude cap.
    found = [
        f"{path.name}:{node.lineno} {node.name}({arg.arg})"
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("cap", "override", "max_dim")
    ]
    assert not found, f"cap parameters: {found}"


def test_only_check_cap_reads_the_cap():
    # gauging.check_cap is the one size guard; the CLI's command hook, _CheckedCommand.invoke, only validates GAUGE_MAX_DIM.
    stray = [
        f"{path.name}:{line} {owner}"
        for path, tree in _sources()
        for owner, line in _references(tree, {"dimension_cap"})
        if (path.name, owner) not in (("gauging.py", "check_cap"), ("cli.py", "invoke"))
    ]
    assert not stray, f"dimension_cap read outside gauging.check_cap and the CLI's command hook: {stray}"


def test_one_place_catches_memory_error():
    # Every subcommand reports a MemoryError through the CLI's command hook, and nothing else catches one.
    catchers = [
        f"{path.name} {owner}"
        for path, tree in _sources()
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None and "MemoryError" in ast.unparse(node.type)
    ]
    assert catchers == ["cli.py invoke"], f"MemoryError caught outside the CLI's command hook: {catchers}"


def _owned_nodes(node: ast.AST, owner: str | None = None):
    """(innermost function around it, node) for every node under `node`; None at module level."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield inner, child
        yield from _owned_nodes(child, inner)


def test_no_float_tolerance_but_the_state_tolerance():
    # Operator claims and state checks are exact, so no code compares
    # floats loosely with isclose or allclose.
    stray = []
    for path, tree in _sources():
        state_tol = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["STATE_TOL"]
        ]
        for owner, node in _owned_nodes(tree):
            if any(node is value for value in state_tol):
                continue
            small = isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1
            loose = getattr(node, "id", getattr(node, "attr", None)) in ("isclose", "allclose")
            if small or loose:
                stray.append(f"{path.name}:{node.lineno} {owner}")
    assert not stray, f"float tolerances besides STATE_TOL: {stray}"


def test_dense_oracle_is_independent_of_the_normal_form():
    # The orbit count checks joint_eigenspace_dimension, so neither of its
    # kernels may read the placements' Weyl rows, the normal form or the
    # batched commutation phases.
    kernels = {("lattice.py", "orbit_eigenspace_dimension"), ("operators.py", "flatten_product_operator")}
    found, stray = set(), []
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in kernels:
                found.add((path.name, node.name))
                normal_form = {"weyl", "joint_eigenspace_dimension", "overlap_exponents"}
                stray += [f"{path.name}:{line} {owner}" for owner, line in _references(node, normal_form, node.name)]
    assert found == kernels
    assert not stray, f"the dense oracle reads the normal form: {stray}"


def test_group_law_is_read_from_the_tables():
    # Routines over every element read groups' add, neg and pair tables; the
    # scalar helpers combine one pair of elements, inside groups.py alone.
    scalar = {"add_exps", "neg_exps", "pair_exponent"}
    stray = [
        f"{path.name}:{line} {owner}"
        for path, tree in _sources()
        if path.name != "groups.py"
        for owner, line in _references(tree, scalar)
    ]
    assert not stray, f"the group law rebuilt from exponent tuples outside groups.py: {stray}"


def test_site_factors_are_weyl_rows():
    # A factor is (group, a, chi, c, kind); the perm and phase tables, their
    # readers and the unkinded factor are gone.
    operators = ast.parse((SRC / "operators.py").read_text(encoding="utf-8"))
    fields = [field for cls, field in _dataclass_fields(operators) if cls == "MonomialOperator"]
    assert fields == ["group", "a", "chi", "c", "kind"]
    gone = {"_weyl_form", "_site_commutator", "_factor_exponent", "_NOT_SCALAR", "with_kind"}
    defined = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in _sources()
        for node in ast.walk(tree)
        for name in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            else [t.id for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
        )
        if name in gone
    ]
    assert not defined, f"deleted names defined again: {defined}"


def test_terms_are_held_by_their_spec_and_witness_is_gone():
    # Bulk terms live on their CodeSpec object, so no module-level cache
    # holds them after the spec is gone; witnesses come from
    # lattice.witnesses alone (LogicalOperator.witness is a field).
    from latgauge import lattice

    for builder in (lattice.build_bulk_stabilizers, lattice._build_bulk_stabilizers):
        assert not hasattr(builder, "cache_info"), builder.__name__
    defined = [
        f"{path.name}:{node.lineno}"
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "witness"
    ]
    assert not defined, f"the per-op witness function defined again: {defined}"


POOL_NAMES = {"concurrent", "multiprocessing", "ProcessPoolExecutor", "BrokenProcessPool", "get_context"}


def _pool_use(node: ast.AST) -> bool:
    """True for an import of concurrent or multiprocessing, a pool name, or os.fork by attribute or by name."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in POOL_NAMES for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in POOL_NAMES
    if isinstance(node, ast.Name):
        return node.id in POOL_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in POOL_NAMES | {"fork"}
    return isinstance(node, ast.Constant) and node.value == "fork"


def test_only_run_suite_starts_processes():
    # suite.run_suite alone imports the pool and forks, so nothing else pays for the import or starts a process.
    users = {f"{path.name} {owner}" for path, tree in _sources() for owner, node in _owned_nodes(tree) if _pool_use(node)}
    assert users == {"suite.py run_suite"}, f"process pools or fork outside suite.run_suite: {users}"


def test_importing_the_cli_loads_no_pool():
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import latgauge.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
