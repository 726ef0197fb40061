"""Static checks on the package source."""

import ast
import dataclasses
import inspect
from pathlib import Path

import tunneltimes
from tunneltimes import stationary, wavepacket

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


def test_calls_the_benchmark_makes():
    # bench/ is versioned apart from the package and calls it as below; the
    # layer tracer reads arguments by position (synthesize_amplitude's times
    # as args[2], stationary.amplitudes' energies as args[2]), and the
    # oracles read these SpectralAmplitude fields
    assert positional_names(wavepacket.synthesize_amplitude)[:3] == ["famp", "x", "times"]
    assert positional_names(stationary.amplitudes)[:3] == ["u0", "l", "eps"]
    assert positional_names(wavepacket.mean_crossing_time)[:3] == ["famp", "x", "t_cut"]
    calls = [(wavepacket.mean_crossing_time, ("famp", 8.0, 30.0), {"dt": 0.05}),
             (wavepacket.free_arrival_time, ("packet", 31.4), {"t_max": 30.0}),
             (wavepacket.scan_arrival, ("packet", "barrier"),
              {"t_max": 30.0, "coarse_dt": 0.05, "t_in": 0.4})]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    fields = {field.name for field in dataclasses.fields(wavepacket.SpectralAmplitude)}
    assert {"grid", "weights", "values", "captured_weight"} <= fields
