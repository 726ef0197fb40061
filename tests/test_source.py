"""Static checks on the package source."""

import ast
import dataclasses
import inspect
import math
import subprocess
import sys
from pathlib import Path

import pytest

import tunneltimes
from tunneltimes import spectral, stationary, times, wavepacket

SOURCES = sorted(Path(tunneltimes.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def private_definitions(tree):
    """Names starting with one underscore that a module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def loaded_names(tree):
    """Every name the module reads, bare or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_no_private_name_is_used_only_outside_the_package():
    # src/ holds no code that only the tests use: a private module-level
    # name that nothing in the package reads is dead or test-only
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set().union(*(loaded_names(tree) for tree in trees.values()))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in private_definitions(tree) - used)
    assert unused == []


def test_no_definition_is_reachable_only_from_tests():
    # a top-level function or class in src/ is exported, or read by src/ or
    # bench/ outside its own body; one read only by definitions that drop
    # out drops out too, until none does
    definitions = {}        # "module:name" -> (name, node)
    roots = set(tunneltimes.__all__).union(
        *(loaded_names(ast.parse(path.read_text())) for path in BENCH))
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.name}:{node.name}"] = node.name, node
            else:
                roots |= loaded_names(node)
    alive = set(definitions)
    while True:
        used = roots.union(*(loaded_names(definitions[key][1]) - {definitions[key][0]}
                             for key in alive))
        dropped = {key for key in alive if definitions[key][0] not in used}
        if not dropped:
            break
        alive -= dropped
    assert sorted(set(definitions) - alive) == []


def defaulted_parameters(tree):
    """(qualified name, call name, parameter, position) of every parameter
    with a default on a top-level function or method.

    The call name is what a call site spells: a method's own name, or its
    class's for __init__.  position is the index a positional argument
    takes at such a call (a method's self is bound already), or None for a
    keyword-only parameter.
    """
    found = []
    units = [(None, node) for node in tree.body]
    units += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body]
    for owner, node in units:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        call_name = owner if node.name == "__init__" else node.name
        qualified = node.name if owner is None else f"{owner}.{node.name}"
        for i in range(len(positional) - len(args.defaults), len(positional)):
            found.append((qualified, call_name, positional[i].arg, i - bound))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((qualified, call_name, arg.arg, None))
    return found


def passed_arguments(trees):
    """Per name called: (most positional arguments, keywords) over the calls
    in trees.

    A call with *args counts as passing every position, and one with
    **kwargs every keyword (its keyword is None).
    """
    passed = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        most, keywords = passed.get(name, (0, set()))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        passed[name] = (max(most, math.inf if starred else len(node.args)),
                        keywords | {k.arg for k in node.keywords})
    return passed


def test_no_parameter_is_set_only_by_tests():
    # an option whose default every caller in src/ and bench/ keeps is one
    # that only the tests set: a parameter with a default must be passed,
    # by position or by keyword, somewhere in the package or the benchmark
    passed = passed_arguments(ast.parse(path.read_text()) for path in SOURCES + BENCH)
    unused = []
    for path in SOURCES:
        for qualified, call_name, param, position in defaulted_parameters(
                ast.parse(path.read_text())):
            most, keywords = passed.get(call_name, (0, set()))
            by_position = position is not None and most > position
            if not (by_position or param in keywords or None in keywords):
                unused.append(f"{qualified}:{param}")
    assert sorted(unused) == []


def imported_modules(tree):
    """(line, module) of every import in tree, at any depth; a relative
    import names the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "tunneltimes" if node.level else node.module))
    return found


def test_src_imports_only_numpy_and_stdlib():
    # the package needs numpy alone at run time (scipy is the tests' and the
    # benchmark's), including imports deferred into a function body
    allowed = set(sys.stdlib_module_names) | {"numpy", "tunneltimes"}
    found = [f"{path.name}:{line}: {name}" for path in SOURCES
             for line, name in imported_modules(ast.parse(path.read_text()))
             if name.partition(".")[0] not in allowed]
    assert found == []


# Modules that compute in Python floats, in math and cmath alone.
FLOAT_MODULES = ("model.py", "numerics.py", "stationary.py", "times.py")


def test_float_modules_hold_no_array_path():
    # no numpy import, at any depth, and no branch on numpy.ndarray
    found = []
    for path in SOURCES:
        if path.name not in FLOAT_MODULES:
            continue
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {name}" for line, name in imported_modules(tree)
                  if name.partition(".")[0] == "numpy"]
        if "ndarray" in loaded_names(tree):
            found.append(f"{path.name}: ndarray")
    assert found == []


def ndarray_branches(tree):
    """Lines of the isinstance calls in tree whose classes name ndarray."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and "ndarray" in loaded_names(node.args[1])]


def test_no_branch_on_ndarray():
    # a function takes a float and an array through one numpy path, or a
    # float alone through math and cmath, never both by type
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in ndarray_branches(ast.parse(path.read_text()))]
    assert found == []


def wavenumber_differences(path):
    """'module:function' of each top-level function of path that forms
    k^2 - chi^2, as k * k - chi * chi or k ** 2 - chi ** 2."""
    forms = {"k * k - chi * chi", "k ** 2 - chi ** 2"}
    return [f"{path.name}:{node.name}" for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node)
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
            and ast.unparse(sub) in forms]


def test_g_is_formed_once():
    # g = (k^2 - chi^2)/(2 k chi) loses digits near eps = u0/2, and its
    # numerator is written in one function, which the float and the packet
    # paths both call: a change of its form is one edit
    found = [name for path in SOURCES for name in wavenumber_differences(path)]
    assert found == ["stationary.py:_wavenumbers"]


# Imports the module named by argv[2] from the sources under argv[1], and
# prints the numpy modules loaded then.
MODULE_IMPORT = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
"""


@pytest.mark.parametrize("module", ["tunneltimes", "tunneltimes.cli"] + [
    "tunneltimes." + name.removesuffix(".py") for name in FLOAT_MODULES],
    ids=lambda module: module.rpartition(".")[2])
def test_model_loads_no_numpy(module):
    # the package, its CLI and each float module in a fresh process, with
    # the package's own __init__ and what the module imports of the package
    src = str(Path(tunneltimes.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", MODULE_IMPORT, src, module],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["[]"]


def unbounded_caches(tree):
    """Lines of functools.cache and lru_cache(maxsize=None) in a module."""
    cache_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "functools"
                   for alias in node.names if alias.name == "cache"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache" and (
                isinstance(node.value, ast.Name) and node.value.id == "functools"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in cache_names:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            maxsize = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if name == "lru_cache" and any(
                    isinstance(v, ast.Constant) and v.value is None for v in maxsize):
                lines.append(node.lineno)
    return lines


def test_every_cache_is_bounded():
    # a module-level cache lives as long as the process, so each one needs
    # a bound: functools.cache and lru_cache(maxsize=None) have none
    found = {path.name: unbounded_caches(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def positional_names(fn):
    """Names of the parameters fn takes by position, in order."""
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def attributes(cls):
    """Dataclass fields and properties of cls."""
    return ({field.name for field in dataclasses.fields(cls)}
            | {name for name, value in vars(cls).items() if isinstance(value, property)})


def test_calls_the_benchmark_makes():
    # bench/ is versioned apart from the package and calls it as below; the
    # layer tracer reads arguments by position (synthesize_amplitude's times
    # as args[2], stationary.amplitudes' energies as args[2]), and its rows
    # and oracles read these fields of the records returned
    assert positional_names(wavepacket.synthesize_amplitude)[:3] == ["famp", "x", "times"]
    assert positional_names(stationary.amplitudes)[:3] == ["u0", "l", "eps"]
    assert positional_names(wavepacket.mean_crossing_time)[:3] == ["famp", "x", "t_cut"]
    calls = [(wavepacket.mean_crossing_time, ("famp", 8.0, 30.0), {"dt": 0.05}),
             (wavepacket.free_arrival_time, ("packet", 31.4), {"t_max": 30.0}),
             (wavepacket.scan_arrival, ("packet", "barrier"),
              {"t_max": 30.0, "coarse_dt": 0.05, "t_in": 0.4}),
             (wavepacket.scan_arrival, ("packet", "barrier"), {"t_max": 30.0, "t_in": 0.4}),
             (stationary.solve, ("barrier", 11.8), {}),
             (spectral.barrier_k_spectrum, ("sol", 400.0, 12001), {}),
             (times.compute_times, ("barrier", 11.8), {}),
             (times.delay_crossing, (8.0, 6.32, 4.0, 7.99), {})]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    read = {wavepacket.SpectralAmplitude: {"grid", "weights", "values", "captured_weight"},
            stationary.ScatteringSolution: {"T", "R"},
            spectral.DirectionalSpectrum: {"w_plus", "w_minus", "ratio", "parseval_rel_err",
                                           "k_max_too_small", "k"},
            times.TimesReport: {"tau_g", "tau_0", "t_ph", "t_free", "tau_d_in",
                                "tau_d_out", "hartman_limit"},
            wavepacket.ArrivalTime: {"t_arr", "t_offset", "peak_density"}}
    for cls, names in read.items():
        assert names <= attributes(cls), cls.__name__
