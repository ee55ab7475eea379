"""Every store op outside the store's own tests is driven.

``DCStore.get``, ``put`` and ``put_conditional`` count the op, check the
mode and draw the outbound hop when called, but return the round trip as a
``RoundTrip``: the op reaches the store only when a process yields it to the
kernel. So a call site must be the operand of ``yield``; a bare call counts
an op that never happens, and so does one under ``yield from`` or passed to
``spawn``, which both expect a generator. ``tests/test_store.py`` calls them
bare on purpose.
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
    driven = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Yield)}
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
        "    rec = yield stores[0].get('k')\n"
        "    return {}.get('k')\n"
    )
    assert undriven_store_calls(source) == [
        (2, "stores[1].put_conditional"),
        (3, "stores[1].put_conditional"),
        (4, "stores[0].get"),
    ]


def test_every_store_call_is_driven():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        rel = path.relative_to(ROOT)
        if rel in EXEMPT:
            continue
        found += [(str(rel), *hit) for hit in undriven_store_calls(path.read_text())]
    assert found == []
