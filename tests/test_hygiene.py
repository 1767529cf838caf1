"""Static checks on the package source with the standard library's ``ast``.

They stand in for a linter: an import nothing uses, a private helper nothing
calls, a method or property nothing reads and a public function, class or
method that only the tests call are all dead code, and an import inside a
function hides a module's dependencies from its header.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logcount"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree):
    """Every identifier a module loads, reads as an attribute or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_module_imports():
    findings = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        findings.append(f"{path.stem}.{bound}")
    assert findings == [], f"unused imports: {findings}"


def names_used_in_src_and_tests():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return set().union(*(referenced_names(parse(path)) for path in files))


def test_no_unreferenced_private_definitions():
    used = names_used_in_src_and_tests()
    findings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used):
                findings.append(f"{path.stem}.{node.name}")
    assert findings == [], f"private definitions nothing references: {findings}"


def test_no_unreferenced_methods():
    used = names_used_in_src_and_tests()
    findings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(parse(path)):
            if isinstance(cls, ast.ClassDef):
                findings.extend(f"{path.stem}.{cls.name}.{fn.name}" for fn in cls.body
                                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not fn.name.startswith("__") and fn.name not in used)
    assert findings == [], f"methods and properties nothing references: {findings}"


def names_used_by_the_program():
    """Names the package (its re-exports aside) or the benchmark references."""
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*(referenced_names(parse(path)) for path in callers))


# Public definitions that only the tests call, each kept for a reason.
TEST_ONLY_PUBLIC = {
    "theoretical_autocovariance": "paper math: the stationary autocovariance of ln(X_t + 1)",
    "mean_log_curve": "paper math: Monte Carlo means of ln(X_t + 1), whose slope is theta",
    "run_coupled_chains": "paper math: one coupled pair with its paths, the mixing experiment's unit",
    "t_star_variance": "paper math: the exact conditional variance of the bootstrap statistic",
    "coupled_draw": "the public single draw of the ordered maximal coupling",
    "multipliers": "the paper's multiplier process, the bit-for-bit reference of bootstrap._draws",
    "tv_distance": "paper math: the TV distance of two count laws, the one-pair call of "
                   "tv_bound_check's grouped head",
}


def test_public_definitions_have_a_program_caller():
    used = names_used_by_the_program()
    defined, findings = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
                if node.name not in used and node.name not in TEST_ONLY_PUBLIC:
                    findings.append(f"{path.stem}.{node.name}")
    assert findings == [], f"public definitions only the tests call: {findings}"
    assert set(TEST_ONLY_PUBLIC) <= defined


# Methods that only the tests call, each kept for a reason.
TEST_ONLY_METHODS = {
    "DiscretizedLaw.pmf": "the count law's pmf, which every dense oracle in the tests builds on",
}


def test_methods_have_a_program_caller():
    used = names_used_by_the_program()
    defined, findings = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(parse(path)):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not fn.name.startswith("__")):
                        defined.add(f"{cls.name}.{fn.name}")
                        if fn.name not in used and f"{cls.name}.{fn.name}" not in TEST_ONLY_METHODS:
                            findings.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert findings == [], f"methods only the tests call: {findings}"
    assert set(TEST_ONLY_METHODS) <= defined


def test_no_function_local_imports():
    findings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                                if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert findings == [], f"imports inside functions: {findings}"
