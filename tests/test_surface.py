"""Every public function and method of the package has a caller in the
package itself or in the benchmark harness: an entry point that only tests
reach is surface to delete, not to keep.  Likewise every config key takes
more than one value across the inputs the program is run on: a key with
one value is a constant to fold into the code, and every tape primitive has
its own (forward, VJP) pair: two names for one pair are one primitive, and
a primitive whose output the tape rebuilds reads all of its inputs.  Only
`container.py` knows a file's byte layout, so no other module packs bytes
or hashes them."""

import ast
import configparser
import re
from collections import Counter, defaultdict
from pathlib import Path

from dpawno import autodiff, config

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dpawno").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def references(node) -> Counter:
    """Identifiers a subtree uses: names, attributes, imported names and
    string constants (the tracer wraps functions by attribute name)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def public_defs(tree):
    """Module-level functions and class methods without a leading _."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not member.name.startswith("_"):
                yield member


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = Counter()
    for tree in trees.values():
        used += references(tree)
    package = ROOT / "src" / "dpawno"
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() if path.parent == package
              for node in public_defs(tree)
              if used[node.name] - references(node)[node.name] < 1]
    assert not unused, f"public names with no caller outside tests: {unused}"


# Keys that keep one value across the presets and the benchmark inputs, each
# for a reason that outlasts the inputs.
ONE_VALUE_KEYS = {
    ("pde", "ny"): "there is one 2D benchmark",
    ("probe", "y"): "there is one 2D benchmark",
    ("wno", "levels"): "gradcheck runs depth 2 through the same field",
    ("grf", "alpha"): "every reliability.jsonl record writes it, and "
                      "perfbench/reference.json pins those records",
    ("grf", "periodicity"): "every reliability.jsonl record writes it, and "
                            "perfbench/reference.json pins those records",
}


def pooled(section):
    """The config.KEYS entry of a section, with the train and test IC
    families pooled into one."""
    return re.sub(r"^ic\.(train|test)\.(\d+|N)$", "ic.N", section)


def workload_overrides():
    """SECTION.KEY=VALUE strings of every WORKLOADS entry in perfbench/run.py,
    read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            for workload in node.value.values:
                for key, value in zip(workload.keys, workload.values):
                    if key.value == "sets":
                        yield from (item.value for item in value.elts)


def test_every_config_key_takes_two_values():
    values = defaultdict(set)
    for preset in config.PRESETS:
        parser = configparser.ConfigParser()
        parser.read_string(config.preset_text(preset))
        for section in parser.sections():
            for key, value in parser.items(section):
                values[pooled(section), key].add(value.strip())
    for item in workload_overrides():
        name, value = item.split("=", 1)
        section, key = name.rsplit(".", 1)
        values[pooled(section), key].add(value.strip())
    single = [f"[{section}] {key}: {sorted(values[pooled(section), key])}"
              for section, keys in config.KEYS.items() for key in keys
              if len(values[pooled(section), key]) < 2
              and (section, key) not in ONE_VALUE_KEYS]
    assert not single, f"config keys with one value, constants to fold: {single}"


def test_every_primitive_has_its_own_rule_pair():
    names = defaultdict(list)
    for name, (forward, vjp, *_) in autodiff.PRIMITIVES.items():
        names[forward, vjp].append(name)
    shared = [sorted(group) for group in names.values() if len(group) > 1]
    assert not shared, f"primitive names sharing one (forward, vjp) pair: {shared}"


def test_rebuilt_primitives_read_every_input():
    """The reverse sweep re-runs a rebuilt primitive's forward on its kept
    inputs with no params, so it must read (keep) every input and take no
    params.  Inputs and params are the positional and keyword arguments of
    the public op's `_apply(name, ...)` call."""
    calls = {}
    tree = ast.parse((ROOT / "src" / "dpawno" / "autodiff.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_apply" \
                and isinstance(node.args[0], ast.Constant):
            calls[node.args[0].value] = (len(node.args) - 1, len(node.keywords))
    assert calls.keys() == autodiff.PRIMITIVES.keys()
    rebuilt = [name for name, entry in autodiff.PRIMITIVES.items() if entry[3]]
    wrong = [name for name in rebuilt
             if sorted(autodiff.PRIMITIVES[name][2]) != list(range(calls[name][0]))
             or calls[name][1]]
    assert not wrong, f"rebuilt primitives that skip an input or take params: {wrong}"


def test_only_the_container_reads_bytes():
    package = ROOT / "src" / "dpawno"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "container.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name in ("struct", "hashlib")]
    assert not offenders, f"byte-layout imports outside container.py: {offenders}"
