"""src/printdex holds only production code, and no config layer.

Every public module-level function or class of ``src/printdex`` must be
referenced from ``src/``, ``bench/`` or ``tests/corpus.py`` (which bench
preparation imports). A name only tests call belongs in a test-side module
such as ``tests/stft_oracle.py`` or ``tests/reference.py``.

The print, onset and no-match parameters are module constants, so no
function takes a config; the only config parameters left are the unused
slots that ``bench/`` still fills positionally. Likewise the STEP 2 bin and
stretch cone, the onset smoother and window, and the fit tolerances are
module constants that no function takes as a parameter. The training
recipe defaults (anchors per track, pool anchors per track, LDA dimension)
are module constants too: every function default and ``printdex train``
option default for them is a name, never a number.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {
    # the paper's LSH model, kept for checking it against measured bit errors and bucket loads
    "expected_unchanged",
    "collision_mean",
    # writes the catalog manifests that tests/corpus.py builds for bench preparation
    "write_manifest",
}
CONFIG_PARAMS = {"cfg", "print_cfg", "onset_cfg"}
TUNING_PARAMS = {"sigma", "alpha_max", "t_c", "mean_lag", "rel_threshold", "max_iter", "tol"}
RECIPE_PARAMS = {"times_per_track", "pool_times_per_track", "lda_dim"}
RECIPE_OPTIONS = {"--times-per-track", "--pool-times-per-track", "--lda-dim"}
BENCH_SLOTS = {
    ("load_track", "cfg"),
    ("train_from_manifest", "cfg"),
    ("build_index", "cfg"),
    ("query_index", "cfg"),
    ("query_index", "print_cfg"),
    ("query_index", "onset_cfg"),
}


def _public_definitions() -> set:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "printdex").glob("*.py")]
    return {n.name for tree in trees for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}


def _used_names(path: Path) -> set:
    """Names, attributes, imported names and identifier strings (the bench tracer names what it wraps)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_public_names_have_production_references():
    production = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"), ROOT / "tests" / "corpus.py"]
    used = set().union(*map(_used_names, production)) | ALLOWED
    unused = sorted(_public_definitions() - used)
    assert not unused, f"public names in src/printdex with no reference from src/, bench/ or tests/corpus.py: {unused}"


def test_allowlist_names_exist():
    assert ALLOWED <= _public_definitions()


def _parameters() -> set:
    """(function, parameter) pairs of every function and lambda in src/printdex."""
    found = set()
    for path in (ROOT / "src" / "printdex").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None}
                found |= {(getattr(node, "name", "<lambda>"), name) for name in names}
    return found


def test_no_config_parameters():
    extra = sorted({pair for pair in _parameters() if pair[1] in CONFIG_PARAMS} - BENCH_SLOTS)
    assert not extra, f"(function, parameter) pairs taking a config in src/printdex: {extra}"


def test_no_tuning_parameters():
    found = sorted(pair for pair in _parameters() if pair[1] in TUNING_PARAMS)
    assert not found, f"(function, parameter) pairs taking a tuning value that is a module constant: {found}"


def _trees() -> list:
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted((ROOT / "src" / "printdex").glob("*.py"))]


def test_recipe_parameter_defaults_are_names():
    found, literal = set(), []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                pairs = [*zip(positional[len(positional) - len(a.defaults) :], a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
                for param, default in pairs:
                    if param.arg in RECIPE_PARAMS and default is not None:
                        found.add(param.arg)
                        if not isinstance(default, (ast.Name, ast.Attribute)):
                            literal.append(f"{name}:{default.lineno} {param.arg}={ast.unparse(default)}")
    assert found == RECIPE_PARAMS
    assert not literal, f"recipe defaults written as values, not as their module constant: {literal}"


def test_recipe_option_defaults_are_names():
    found, literal = set(), []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
                flags = {arg.value for arg in node.args if isinstance(arg, ast.Constant)} & RECIPE_OPTIONS
                for keyword in node.keywords:
                    if flags and keyword.arg == "default":
                        found |= flags
                        if not isinstance(keyword.value, (ast.Name, ast.Attribute)):
                            literal.append(f"{name}:{keyword.value.lineno} {sorted(flags)} default={ast.unparse(keyword.value)}")
    assert found == RECIPE_OPTIONS
    assert not literal, f"recipe option defaults written as values, not as their module constant: {literal}"
