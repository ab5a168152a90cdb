"""The public names of the package are part of its contract."""

import ast
from pathlib import Path

import ccsym

PUBLIC = {
    "AlgebraError", "ArtinianLocal", "BivarPoly", "BivarRational",
    "CONVENTION", "Cocycle2", "DescriptorMismatch", "DivisionByNonUnit",
    "ExpressionSyntaxError", "FiniteGroup", "GaloisField",
    "IncompleteFlagCover", "InvalidCocycle", "LaurentRing", "LaurentSeries",
    "LocalFactor", "NonCommutingPair", "NonUnitLeadingCoefficient",
    "NotAUnit", "NotRegular", "Place", "Poly", "PrecisionExhausted",
    "PrimeField", "RationalFunction", "ReciprocityReport", "RingValue",
    "SingularCompression", "SurfaceFlag", "UnknownSymbol",
    "UnsupportedArgument", "ZeroFunction", "ZeroOnCurve",
    "bicharacter_cocycle", "cc_check", "cc_symbol", "coboundary", "cocycle",
    "default_precision", "embed", "errors", "extension_commutator", "factor",
    "flag_expand", "format_series", "format_value", "geometry",
    "group_catalog", "groups", "higher_symbol", "is_irreducible",
    "iterated_ring", "joint_torsion", "laurent", "laurent_inv",
    "local_expand", "nest", "parse_expression", "parse_polynomial",
    "parse_ring", "parse_scalar", "parser", "parshin_check", "poly",
    "poly_gcd", "random_cocycle", "random_poly", "reciprocity",
    "relative_norm", "residue_extension", "ring_label", "rings", "roots_in",
    "squarefree_decomposition", "steinberg_expand", "support_places",
    "symbols", "szego_ratio", "tame_symbol", "toeplitz", "toeplitz_index",
    "toeplitz_matrix", "trivial_cocycle", "unit_decompose", "weil_check",
}


def test_public_names_are_pinned():
    # the aliases higher_tame and higher_cc (both higher_symbol) and
    # constant_series (LaurentRing.constant) are gone on purpose
    assert set(ccsym.__all__) == PUBLIC


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names that appear only inside quoted annotations such as -> "RingValue"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _unreferenced_private_names(package):
    """Private module-level functions and classes, and private methods, whose
    name no expression, attribute or import in the package mentions."""
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defined[d.name] = f"{path.name}:{d.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in used)


def test_every_private_helper_is_used():
    # a helper that a refactor leaves behind is dead code
    assert _unreferenced_private_names(Path(ccsym.__file__).parent) == []


def test_no_module_imports_an_unused_name():
    # __init__.py imports names only to re-export them
    package = Path(ccsym.__file__).parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
