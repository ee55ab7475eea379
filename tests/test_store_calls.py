"""Every store op outside the store's own tests is driven.

``DCStore.get``, ``put`` and ``put_conditional`` count the op and check the
mode when called, but return the round trip as a generator: the op reaches
the store only when a process runs it. So a call site must be the operand of
``yield from`` or an argument of ``spawn``; a bare call counts an op that
never happens. ``tests/test_store.py`` calls them bare on purpose.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STORE_OPS = {"get", "put", "put_conditional"}
STORE = re.compile(r"\bstores?\b")  # store, self.store, stores[dc], self.stores[dc]
EXEMPT = {Path("tests/test_store.py")}


def undriven_store_calls(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    driven = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.YieldFrom):
            driven.add(id(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "spawn"
        ):
            driven.update(id(arg) for arg in node.args)
    return [
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in STORE_OPS
        and STORE.search(ast.unparse(node.func.value))
        and id(node) not in driven
    ]


def test_scan_flags_a_bare_store_call():
    source = (
        "def f(sim, stores, rec):\n"
        "    stores[1].put_conditional('k', rec.siblings[0], rec.version)\n"
        "    sim.spawn(stores[1].put_conditional('k', rec.siblings[0], rec.version))\n"
        "    rec = yield from stores[0].get('k')\n"
        "    return {}.get('k')\n"
    )
    assert undriven_store_calls(source) == [(2, "stores[1].put_conditional")]


def test_every_store_call_is_driven():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        rel = path.relative_to(ROOT)
        if rel in EXEMPT:
            continue
        found += [(str(rel), *hit) for hit in undriven_store_calls(path.read_text())]
    assert found == []
