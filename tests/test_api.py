"""The package defines no name that only tests call, and only circuit.py
knows the circuit column format.

Every module-level function or class of src/fsrkit, and every public
method, must be referenced in src/fsrkit or perfbench outside its own
definition.  Names are matched as written: a module-level name by any
read of it (a plain name, an import or an attribute), a method by any
attribute read of its name, whatever the object.  The names in KEPT are
exempt, each for the reason given.

No other module of src/fsrkit reads or writes an attribute named after
a circuit column or the stamp record (COLUMNS), whatever the object.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fsrkit"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: names that only tests call, and why each stays
KEPT = {
    "gadget_xor": "the size tests read the paper's five-gate XOR from it",
    "gadget_equal": "the size tests read the paper's 6m-gate equality from it",
    "realizable_as_fsr": "the tests' reference form of cycle-set realizability",
    "simulate_cascade": "the oracle that cycle_structure of a product is checked against",
    "poly_is_irreducible": "ROADMAP item 7 (lfsr.factor) replaces it with a factorization",
    "rho": "the paper's representative map, checked against its per-state form",
    "d_set": "the paper's deferred set D, checked against its per-state form",
}

#: the attributes that hold a circuit's columns and record of stamps
COLUMNS = {"kinds", "a", "b", "stamps"}


def definitions(tree):
    """(name, node, is_method) for each module-level function and class
    and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item, True


def references():
    """name -> [(path, line)] of its reads, split into plain names and
    imports, and attribute reads."""
    plain, attrs = {}, {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                plain.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.alias):
                plain.setdefault(node.name, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    return plain, attrs


def unreferenced():
    plain, attrs = references()
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node, is_method in definitions(tree):
            reads = attrs.get(name, []) + ([] if is_method else plain.get(name, []))
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in reads):
                out.add(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_name_is_used_by_the_package_or_the_benchmark():
    unused = {entry for entry in unreferenced()
              if entry.split()[1] not in KEPT}
    assert not unused, sorted(unused)


def test_every_kept_name_is_defined_and_still_only_called_by_tests():
    # a kept name that the package comes to use, or deletes, leaves KEPT
    names = {entry.split()[1] for entry in unreferenced()}
    assert set(KEPT) <= names, sorted(set(KEPT) - names)


def test_only_circuit_py_touches_the_columns_and_the_record():
    touched = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "circuit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in COLUMNS:
                touched.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not touched, touched
