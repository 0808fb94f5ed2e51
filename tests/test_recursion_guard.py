"""No code in c4ramsey may lean on Python's recursion limit.

Searches and derivations run as loops over explicit stacks, so their depth
is free.  The only functions that call themselves are the ones below, each
with a depth bound that stays small whatever the input.  A new self-calling
function fails here until it becomes a loop or is added with its bound.
"""

import ast
from pathlib import Path

import c4ramsey

BOUNDED = {
    # one level per clique vertex still needed, down to an edge scan:
    # depth <= k - 1 for K_k, k >= 2
    "graphs._clique_in",
    # base + tK1 to its base, which with_isolated never makes a base + sK1
    # again: depth <= 2
    "graphs.contains_target",
    # flattens (b + sK1) + tK1 to b + (s+t)K1 in one step: depth <= 2
    "targets.with_isolated",
    # base + tK1 to its base: depth <= 2
    "targets.target_edges",
    # base + tK1 to its base: depth <= 2
    "targets.delete_options",
}


def _callee(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
        return f.attr
    return None


def self_calling_functions() -> set[str]:
    found = set()
    for path in sorted(Path(c4ramsey.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(c, ast.Call) and _callee(c) == fn.name for c in ast.walk(fn)):
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_only_bounded_functions_call_themselves():
    assert self_calling_functions() == BOUNDED
