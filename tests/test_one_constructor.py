"""Every certificate of ``src/fflab`` is built by ``certificates.make_certificate``.

A call of ``NormCertificate``, by bare name or as an attribute, may sit only in
that one function, so char, degree and n are read off the field in one place.
``NormCertificate.from_dict`` reparses a certificate through ``cls``, which is
not a construction of a new statement and is not counted.
"""

import ast

CONSTRUCTOR = "certificates.make_certificate"


class _Constructions(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "NormCertificate":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def constructions(sources: dict[str, str]) -> list[str]:
    """module.function for every call of NormCertificate."""
    out = []
    for module, text in sources.items():
        finder = _Constructions(module)
        finder.visit(ast.parse(text))
        out += finder.found
    return sorted(out)


def test_one_function_builds_every_certificate(sources):
    assert constructions(sources) == [CONSTRUCTOR]


def test_a_planted_construction_fails(sources):
    sources["kakeya"] += (
        "\n\ndef _planted(field, value):\n"
        "    return NormCertificate('kakeya', 'lower', 'witness', field.p, field.k, 2,\n"
        "                           'lines(n=2)', 2, 2, value)\n"
    )
    sources["restriction"] += (
        "\n\nclass _Planted:\n"
        "    def build(self, surface):\n"
        "        return certificates.NormCertificate(**self.fields)\n"
    )
    assert constructions(sources) == [
        CONSTRUCTOR, "kakeya._planted", "restriction._Planted.build",
    ]
