"""``repro.sim`` is a leaf: it imports nothing from ``transport`` or ``core``.

The dependency runs one way, ``transport -> sim`` (the kernel, the
stable store).  An import back up the stack would make the substrate
depend on the protocol built on it.  The value codec sits below both
(the store seals its encoding, the wire frames it), so it imports
nothing from ``sim`` either.
"""

import ast
from pathlib import Path

import repro.codec
import repro.sim

SIM_DIR = Path(repro.sim.__file__).parent
FORBIDDEN = ("repro.transport", "repro.core")


def _imported_modules(path: Path, package: str = "repro.sim"):
    """Absolute names of every module ``path`` (in ``package``) imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_sim_imports_nothing_from_transport_or_core():
    sources = sorted(SIM_DIR.glob("*.py"))
    assert sources
    offending = [
        (path.name, module)
        for path in sources
        for module in _imported_modules(path)
        if module.startswith(FORBIDDEN)
    ]
    assert offending == []


def test_codec_imports_nothing_from_sim_transport_or_core():
    path = Path(repro.codec.__file__)
    offending = [
        module
        for module in _imported_modules(path, package="repro")
        if module.startswith(FORBIDDEN + ("repro.sim",))
    ]
    assert offending == []
