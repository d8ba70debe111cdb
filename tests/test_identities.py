"""Every identity key written as a literal in the package is registered."""

import ast
from pathlib import Path

import potkernels
from potkernels.identities import IDENTITIES


def _literal(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def identity_literals(tree):
    """(form, key) for IdentityError("..."), check("...", ...), key="...",
    _q(..., "...") and {"citation": "..."} in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("IdentityError", "check") and node.args:
                yield name, _literal(node.args[0])
            if name == "_q" and len(node.args) == 2:
                yield "_q", _literal(node.args[1])
            for kw in node.keywords:
                if kw.arg == "key":
                    yield "key=", _literal(kw.value)
        elif isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None and _literal(k) == "citation":
                    yield "citation", _literal(v)


def test_every_literal_identity_key_is_registered():
    # an unregistered key would otherwise fail only when its raise site runs
    found = []
    for path in sorted(Path(potkernels.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, form, key) for form, key in identity_literals(tree)]
    assert {form for _, form, _ in found} == {"IdentityError", "check", "_q", "key=", "citation"}
    literal = [(name, form, key) for name, form, key in found if key is not None]
    assert len(literal) >= 50
    unknown = [f for f in literal if f[2] not in IDENTITIES and f[2] != "derived"]
    assert unknown == []
